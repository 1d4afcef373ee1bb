package svm

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/mlmetrics"
	"repro/internal/xrand"
)

// StratifiedKFold splits example indices into k folds preserving the class
// ratio, shuffled deterministically from the seed. Returned folds partition
// [0, n).
func StratifiedKFold(y []bool, k int, seed uint64) ([][]int, error) {
	if k < 2 {
		return nil, fmt.Errorf("svm: k-fold needs k >= 2, got %d", k)
	}
	if len(y) < k {
		return nil, fmt.Errorf("svm: %d examples cannot fill %d folds", len(y), k)
	}
	rng := xrand.New(seed)
	var pos, neg []int
	for i, l := range y {
		if l {
			pos = append(pos, i)
		} else {
			neg = append(neg, i)
		}
	}
	rng.Shuffle(len(pos), func(i, j int) { pos[i], pos[j] = pos[j], pos[i] })
	rng.Shuffle(len(neg), func(i, j int) { neg[i], neg[j] = neg[j], neg[i] })
	folds := make([][]int, k)
	for i, idx := range pos {
		folds[i%k] = append(folds[i%k], idx)
	}
	for i, idx := range neg {
		folds[(i+k/2)%k] = append(folds[(i+k/2)%k], idx)
	}
	return folds, nil
}

// CrossValidate trains on k−1 folds and evaluates on the held-out fold,
// returning the pooled confusion matrix over all folds. Folds whose
// training partition collapses to one class are skipped. The folds train
// concurrently on up to GOMAXPROCS goroutines; each seeds its own RNG from
// cfg.Seed and is pooled in fold order, so the result does not depend on
// the schedule.
func CrossValidate(X [][]float64, y []bool, k int, cfg Config) (mlmetrics.Confusion, error) {
	var cm mlmetrics.Confusion
	folds, err := StratifiedKFold(y, k, cfg.Seed)
	if err != nil {
		return cm, err
	}
	cms := make([]mlmetrics.Confusion, len(folds))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(folds)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for fi := int(next.Add(1) - 1); fi < len(folds); fi = int(next.Add(1) - 1) {
				cms[fi] = evalFold(X, y, folds[fi], cfg)
			}
		}()
	}
	wg.Wait()
	for _, c := range cms {
		cm.TP, cm.TN, cm.FP, cm.FN = cm.TP+c.TP, cm.TN+c.TN, cm.FP+c.FP, cm.FN+c.FN
	}
	if cm.Total() == 0 {
		return cm, fmt.Errorf("svm: no fold could be evaluated")
	}
	return cm, nil
}

// evalFold trains on every example outside test and counts its predictions
// on test. An empty fold, or one whose training partition collapses to one
// class, counts nothing and is skipped, as sklearn's CV does.
func evalFold(X [][]float64, y []bool, test []int, cfg Config) (cm mlmetrics.Confusion) {
	if len(test) == 0 {
		return cm
	}
	inTest := make([]bool, len(X))
	for _, idx := range test {
		inTest[idx] = true
	}
	trX := make([][]float64, 0, len(X)-len(test))
	trY := make([]bool, 0, len(X)-len(test))
	for i := range X {
		if !inTest[i] {
			trX = append(trX, X[i])
			trY = append(trY, y[i])
		}
	}
	model, err := Train(trX, trY, cfg)
	if err != nil {
		return cm
	}
	for _, idx := range test {
		cm.Count(model.Predict(X[idx]), y[idx])
	}
	return cm
}

// GridPoint is one (C, γ) candidate of the hyper-parameter search.
type GridPoint struct {
	C     float64
	Gamma float64 // 0 selects the linear kernel
}

// GridResult records one evaluated grid point.
type GridResult struct {
	Point    GridPoint
	Accuracy float64
	F1       float64
}

// GridSearch evaluates every (C, γ) pair with k-fold cross-validation and
// returns the best configuration by accuracy (F1 breaking ties), plus the
// full result table — the paper's "grid search was applied to optimize the
// hyper-parameters" step.
func GridSearch(X [][]float64, y []bool, cs, gammas []float64, k int, seed uint64) (Config, []GridResult, error) {
	if len(cs) == 0 {
		return Config{}, nil, fmt.Errorf("svm: empty C grid")
	}
	var results []GridResult
	best := -1
	for _, c := range cs {
		for _, g := range gammas {
			cfg := DefaultConfig()
			cfg.C = c
			cfg.Seed = seed
			if g <= 0 {
				cfg.Kernel = Linear{}
			} else {
				cfg.Kernel = RBF{Gamma: g}
			}
			cm, err := CrossValidate(X, y, k, cfg)
			if err != nil {
				continue
			}
			results = append(results, GridResult{
				Point:    GridPoint{C: c, Gamma: g},
				Accuracy: cm.Accuracy(),
				F1:       cm.F1(),
			})
			i := len(results) - 1
			if best < 0 ||
				results[i].Accuracy > results[best].Accuracy ||
				(results[i].Accuracy == results[best].Accuracy && results[i].F1 > results[best].F1) {
				best = i
			}
		}
	}
	if best < 0 {
		return Config{}, nil, fmt.Errorf("svm: grid search evaluated nothing")
	}
	cfg := DefaultConfig()
	cfg.C = results[best].Point.C
	cfg.Seed = seed
	if results[best].Point.Gamma <= 0 {
		cfg.Kernel = Linear{}
	} else {
		cfg.Kernel = RBF{Gamma: results[best].Point.Gamma}
	}
	return cfg, results, nil
}

// StandardGrid returns the (C, γ) candidates used throughout the
// reproduction.
func StandardGrid() (cs, gammas []float64) {
	return []float64{0.1, 1, 10, 100}, []float64{0, 0.1, 0.5, 2}
}
