// Package svm implements a soft-margin support vector machine trained with
// Platt's sequential minimal optimization (SMO), with linear and RBF
// kernels — the classification engine of the paper's machine-learning
// phase. It is written against the same contract scikit-learn's SVC
// provides to the authors: fit on a labeled feature matrix, expose decision
// values for ROC analysis, and predict binary sensitivity classes.
package svm

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/xrand"
)

// Kernel computes inner products in feature space. Implementations must
// be safe for concurrent use: CrossValidate trains its folds in parallel.
type Kernel interface {
	Eval(a, b []float64) float64
	Name() string
}

// Linear is the plain dot-product kernel.
type Linear struct{}

// Eval implements Kernel.
func (Linear) Eval(a, b []float64) float64 { return dot(a, b) }

// Name implements Kernel.
func (Linear) Name() string { return "linear" }

// RBF is the Gaussian radial basis kernel exp(-γ‖a−b‖²).
type RBF struct{ Gamma float64 }

// Eval implements Kernel.
func (k RBF) Eval(a, b []float64) float64 {
	var d2 float64
	for i := range a {
		d := a[i] - b[i]
		d2 += d * d
	}
	return math.Exp(-k.Gamma * d2)
}

// Name implements Kernel.
func (k RBF) Name() string { return fmt.Sprintf("rbf(γ=%g)", k.Gamma) }

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Config holds SMO training hyper-parameters.
type Config struct {
	C         float64 // soft-margin penalty
	Kernel    Kernel
	Tol       float64 // KKT violation tolerance
	MaxPasses int     // passes without alpha changes before stopping
	MaxIter   int     // hard iteration cap
	Seed      uint64
}

// DefaultConfig returns the hyper-parameters used before grid search.
func DefaultConfig() Config {
	return Config{C: 1, Kernel: RBF{Gamma: 0.5}, Tol: 1e-3, MaxPasses: 5, MaxIter: 200, Seed: 1}
}

// Model is a trained SVM.
type Model struct {
	kernel Kernel
	svX    [][]float64
	svY    []float64
	alpha  []float64
	b      float64
	iters  int
}

// NumSV returns the number of support vectors retained.
func (m *Model) NumSV() int { return len(m.svX) }

// Iters returns the SMO iteration count of training.
func (m *Model) Iters() int { return m.iters }

// kernelCacheMax is the largest training set whose kernel matrix Train
// caches (32 MiB of float64 at 2048 rows). A variable so tests can drive
// the on-demand path on small data.
var kernelCacheMax = 2048

// Train fits the SVM on X (rows are examples) with binary labels y.
func Train(X [][]float64, y []bool, cfg Config) (*Model, error) {
	n := len(X)
	if n == 0 || n != len(y) {
		return nil, fmt.Errorf("svm: %d examples with %d labels", n, len(y))
	}
	dim := len(X[0])
	for i, x := range X {
		if len(x) != dim {
			return nil, fmt.Errorf("svm: example %d has %d features, want %d", i, len(x), dim)
		}
	}
	if cfg.C <= 0 {
		return nil, fmt.Errorf("svm: C must be positive, got %g", cfg.C)
	}
	if cfg.Kernel == nil {
		return nil, fmt.Errorf("svm: nil kernel")
	}
	ys := make([]float64, n)
	pos := 0
	for i, l := range y {
		ys[i] = -1
		if l {
			ys[i] = 1
			pos++
		}
	}
	if pos == 0 || pos == n {
		return nil, fmt.Errorf("svm: training set needs both classes (pos=%d neg=%d)", pos, n-pos)
	}
	if cfg.Tol <= 0 {
		cfg.Tol = 1e-3
	}
	if cfg.MaxPasses <= 0 {
		cfg.MaxPasses = 5
	}
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = 200
	}

	// Kernel cache for modest n, one flat row-major n×n block; above the
	// cap, entries are evaluated on demand. Each cached entry comes from one
	// Eval and is mirrored, so K[i*n+j] and K[j*n+i] are bit-equal.
	var kc []float64
	if n <= kernelCacheMax {
		kc = make([]float64, n*n)
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				v := cfg.Kernel.Eval(X[i], X[j])
				kc[i*n+j] = v
				kc[j*n+i] = v
			}
		}
	}
	kval := func(i, j int) float64 {
		if kc != nil {
			return kc[i*n+j]
		}
		return cfg.Kernel.Eval(X[i], X[j])
	}

	// f(i) = b + Σ α_j y_j K(j, i) walks only sv, the ascending j with
	// α_j ≠ 0, and coef, their α_j y_j (exact: y is ±1). Those are the same
	// products, added in the same order, as a walk over every j that skips
	// zero α, so the model is bit-identical to that walk's.
	alpha := make([]float64, n)
	var sv []int
	var coef []float64
	b := 0.0
	f := func(i int) float64 {
		var s float64
		cs := coef[:len(sv)]
		if kc != nil {
			row := kc[i*n : i*n+n]
			for k, j := range sv {
				s += cs[k] * row[j]
			}
		} else {
			for k, j := range sv {
				s += cs[k] * cfg.Kernel.Eval(X[j], X[i])
			}
		}
		return s + b
	}
	set := func(k int, a float64) {
		alpha[k] = a
		p, in := slices.BinarySearch(sv, k)
		switch {
		case in && a != 0:
			coef[p] = a * ys[k]
		case in:
			sv, coef = slices.Delete(sv, p, p+1), slices.Delete(coef, p, p+1)
		case a != 0:
			sv, coef = slices.Insert(sv, p, k), slices.Insert(coef, p, a*ys[k])
		}
	}

	rng := xrand.New(cfg.Seed)
	passes, iters := 0, 0
	for passes < cfg.MaxPasses && iters < cfg.MaxIter {
		changed := 0
		for i := 0; i < n; i++ {
			ei := f(i) - ys[i]
			if (ys[i]*ei < -cfg.Tol && alpha[i] < cfg.C) || (ys[i]*ei > cfg.Tol && alpha[i] > 0) {
				j := rng.Intn(n - 1)
				if j >= i {
					j++
				}
				ej := f(j) - ys[j]
				ai, aj := alpha[i], alpha[j]
				var lo, hi float64
				if ys[i] != ys[j] {
					lo = math.Max(0, aj-ai)
					hi = math.Min(cfg.C, cfg.C+aj-ai)
				} else {
					lo = math.Max(0, ai+aj-cfg.C)
					hi = math.Min(cfg.C, ai+aj)
				}
				if lo == hi {
					continue
				}
				kij, kii, kjj := kval(i, j), kval(i, i), kval(j, j)
				eta := 2*kij - kii - kjj
				if eta >= 0 {
					continue
				}
				ajNew := aj - ys[j]*(ei-ej)/eta
				if ajNew > hi {
					ajNew = hi
				} else if ajNew < lo {
					ajNew = lo
				}
				if math.Abs(ajNew-aj) < 1e-5 {
					continue
				}
				aiNew := ai + ys[i]*ys[j]*(aj-ajNew)
				b1 := b - ei - ys[i]*(aiNew-ai)*kii - ys[j]*(ajNew-aj)*kij
				b2 := b - ej - ys[i]*(aiNew-ai)*kij - ys[j]*(ajNew-aj)*kjj
				switch {
				case aiNew > 0 && aiNew < cfg.C:
					b = b1
				case ajNew > 0 && ajNew < cfg.C:
					b = b2
				default:
					b = (b1 + b2) / 2
				}
				set(i, aiNew)
				set(j, ajNew)
				changed++
			}
		}
		iters++
		if changed == 0 {
			passes++
		} else {
			passes = 0
		}
	}

	m := &Model{kernel: cfg.Kernel, b: b, iters: iters}
	for i := 0; i < n; i++ {
		if alpha[i] > 1e-8 {
			m.svX = append(m.svX, X[i])
			m.svY = append(m.svY, ys[i])
			m.alpha = append(m.alpha, alpha[i])
		}
	}
	if len(m.svX) == 0 {
		// Degenerate but possible on trivially separable data with large
		// tolerance: keep the first example with a negligible α, so the
		// decision value is b to within 1e-8.
		m.svX = X[:1]
		m.svY = ys[:1]
		m.alpha = []float64{1e-8}
	}
	return m, nil
}

// Decision returns the signed distance proxy w·φ(x)+b; positive predicts
// the sensitive class.
func (m *Model) Decision(x []float64) float64 {
	var s float64
	for i := range m.svX {
		s += m.alpha[i] * m.svY[i] * m.kernel.Eval(m.svX[i], x)
	}
	return s + m.b
}

// Predict returns the binary class of x.
func (m *Model) Predict(x []float64) bool { return m.Decision(x) > 0 }
