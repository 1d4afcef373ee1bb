package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of vals.
func sorted(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of vals (mean of the two middle values
// for an even count), 0 for an empty slice.
func median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	s := sorted(vals)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(vals, n=4) gives (the default "exclusive" method),
// because that is what the driver computes run-to-run spread from. It
// needs at least two values.
func quartiles(vals []float64) (q1, q2, q3 float64, ok bool) {
	n := len(vals)
	if n < 2 {
		return 0, 0, 0, false
	}
	s := sorted(vals)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3), true
}

// spread is the distance between the first and third quartile as a share
// of the median — the run-to-run noise measure bounds are compared with.
func spread(vals []float64) (float64, bool) {
	q1, _, q3, ok := quartiles(vals)
	med := median(vals)
	if !ok || med == 0 {
		return 0, false
	}
	return math.Abs(q3-q1) / math.Abs(med), true
}

// highPercentile returns the value at the highest percentile that still
// has ten samples beyond it, and that percentile (0..100). ok is false
// when no percentile above the median qualifies (fewer than 22 samples).
func highPercentile(vals []float64) (v, pct float64, ok bool) {
	n := len(vals)
	i := n - 11     // ten samples lie strictly beyond index i
	if 2*i <= n-1 { // at or below the median
		return 0, 0, false
	}
	s := sorted(vals)
	return s[i], 100 * float64(i+1) / float64(n), true
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
