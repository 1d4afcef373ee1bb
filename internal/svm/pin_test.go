package svm

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/xrand"
)

// overlapping generates n rows of six features on five levels in [0, 1],
// like the min-max-scaled integer node features of a netlist. A positive
// row pushes each feature to the top level half of the time; otherwise both
// classes draw the same levels, so duplicate rows carry both labels and no
// boundary separates them: SMO keeps moving the support-vector set until it
// hits MaxIter.
func overlapping(n int, seed uint64) ([][]float64, []bool) {
	rng := xrand.New(seed)
	X := make([][]float64, n)
	y := make([]bool, n)
	for i := range X {
		y[i] = rng.Float64() < 0.4
		X[i] = make([]float64, 6)
		for d := range X[i] {
			level := rng.Intn(5)
			if y[i] && rng.Float64() < 0.5 {
				level = 4
			}
			X[i][d] = float64(level) / 4
		}
	}
	return X, y
}

// trainPin renders everything a training run decides, bit for bit: the
// bias, the iteration and support-vector counts, an FNV-64a digest over
// every retained α, and the pooled 10-fold confusion.
func trainPin(t *testing.T, X [][]float64, y []bool, seed uint64) string {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Seed = seed
	m, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	for _, a := range m.alpha {
		bits := math.Float64bits(a)
		for k := range buf {
			buf[k] = byte(bits >> (8 * k))
		}
		h.Write(buf[:])
	}
	cm, err := CrossValidate(X, y, 10, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("b=%#016x iters=%d sv=%d alpha=%#016x cv=%+v",
		math.Float64bits(m.b), m.Iters(), m.NumSV(), h.Sum64(), cm)
}

// TestTrainPinned pins the trained model and the cross-validation result
// bit for bit on a non-separable 520×6 dataset that runs SMO to MaxIter. The literals were captured
// from the straightforward O(n)-per-decision SMO; any change to the
// trainer's floating-point work shows here.
func TestTrainPinned(t *testing.T) {
	X, y := overlapping(520, 42)
	want := map[uint64]string{
		1: "b=0x4000d95bd2b3be17 iters=200 sv=265 alpha=0xe42a2e40bba350a2 cv=TP=153 TN=273 FP=43 FN=51 | TNR=86.39% TPR=75.00% P=78.06% Acc=81.92% F1=0.76",
		2: "b=0x4000d74c93cfa2b5 iters=200 sv=265 alpha=0x268268b1a49d417c cv=TP=157 TN=272 FP=44 FN=47 | TNR=86.08% TPR=76.96% P=78.11% Acc=82.50% F1=0.78",
		3: "b=0x4000cd963f553dd2 iters=200 sv=263 alpha=0xc6325d5bc54aaf02 cv=TP=153 TN=273 FP=43 FN=51 | TNR=86.39% TPR=75.00% P=78.06% Acc=81.92% F1=0.76",
	}
	for seed := uint64(1); seed <= 3; seed++ {
		if got := trainPin(t, X, y, seed); got != want[seed] {
			t.Errorf("seed %d:\n got %s\nwant %s", seed, got, want[seed])
		}
	}
}

// TestTrainUncachedMatchesCached: above the cache cap, Train evaluates
// every kernel entry on demand and must land on the same model bit for bit.
func TestTrainUncachedMatchesCached(t *testing.T) {
	X, y := overlapping(200, 9)
	cached := trainPin(t, X, y, 1)
	defer func(old int) { kernelCacheMax = old }(kernelCacheMax)
	kernelCacheMax = 0
	if got := trainPin(t, X, y, 1); got != cached {
		t.Errorf("uncached:\n got %s\nwant %s", got, cached)
	}
}

// TestCrossValidateGOMAXPROCS: the pooled confusion does not depend on how
// many folds train at once.
func TestCrossValidateGOMAXPROCS(t *testing.T) {
	X, y := overlapping(300, 7)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var first string
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		cm, err := CrossValidate(X, y, 10, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%+v", cm)
		if first == "" {
			first = got
		} else if got != first {
			t.Errorf("GOMAXPROCS=%d: confusion %s, want %s", procs, got, first)
		}
	}
}
