package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); !near(got, c.want) {
			t.Errorf("median(%v) = %g, want %g", c.in, got, c.want)
		}
	}
}

// The expected cut points are what Python's
// statistics.quantiles(vals, n=4) prints for the same lists.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 5, 8.5},
		{[]float64{1.2, 1.3, 1.25, 1.4, 1.22, 1.31, 1.28, 1.27, 1.26, 1.5}, 1.2425, 1.275, 1.3325},
	} {
		q1, q2, q3, ok := quartiles(c.in)
		if !ok || !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %g %g %g (ok=%v), want %g %g %g", c.in, q1, q2, q3, ok, c.q1, c.q2, c.q3)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value must not be ok")
	}
}

func TestSpread(t *testing.T) {
	sp, ok := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if !ok || !near(sp, (8.25-2.75)/5.5) {
		t.Errorf("spread = %g (ok=%v)", sp, ok)
	}
	if _, ok := spread([]float64{0, 0, 0}); ok {
		t.Error("spread with a zero median must not be ok")
	}
}

func TestHighPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // descending: the function must sort
		}
		return v
	}
	// Fewer than 22 samples: the percentile with ten beyond it is not
	// above the median.
	for _, n := range []int{0, 5, 11, 21} {
		if _, _, ok := highPercentile(seq(n)); ok {
			t.Errorf("n=%d: want no high percentile", n)
		}
	}
	// n=22: index 11 (value 12), ten values beyond it.
	v, pct, ok := highPercentile(seq(22))
	if !ok || v != 12 || !near(pct, 100*12.0/22) {
		t.Errorf("n=22: got %g p%g ok=%v", v, pct, ok)
	}
	// n=100: p90, ten beyond.
	v, pct, ok = highPercentile(seq(100))
	if !ok || v != 90 || !near(pct, 90) {
		t.Errorf("n=100: got %g p%g ok=%v", v, pct, ok)
	}
	// n=1000: p99.
	v, pct, ok = highPercentile(seq(1000))
	if !ok || v != 990 || !near(pct, 99) {
		t.Errorf("n=1000: got %g p%g ok=%v", v, pct, ok)
	}
}
