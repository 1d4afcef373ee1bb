package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/features"
	"repro/internal/socgen"
	"repro/internal/ssresf"
	"repro/internal/svm"
)

const (
	mlSoC      = 1  // the dataset's benchmark (589 labeled rows)
	mlPredicts = 20 // Predict calls per repetition
	// mlAccuracyFloor is the pooled 10-fold CV accuracy below which the
	// trained classifier counts as wrong (0.888 at the seed commit for
	// every fold seed tried): a faster trainer may not buy its speed with
	// accuracy.
	mlAccuracyFloor = 0.85
)

// mlWorkload is the paper's machine-learning phase: build the labeled
// dataset from one fault-injection campaign (set-up), then ssresf.Train
// (rank, select, scale, 10-fold cross-validation, final fit; no grid
// search — GridSearch is the same CV repeated per grid point) and
// mlPredicts whole-netlist predictions. The campaign seed is fixed, so
// the dataset is the same in every run (labels move sharply with the
// campaign seed, and training cost with them); the run seed drives the
// fold shuffles.
type mlWorkload struct {
	env *runEnv
	ec  ssresf.ExperimentConfig
}

func (w *mlWorkload) prepare(_ context.Context, env *runEnv) error {
	runtime.GOMAXPROCS(2)
	w.env = env
	w.ec = ssresf.DefaultExperimentConfig(false)
	return nil
}

func (w *mlWorkload) rep(_ context.Context, k int, sc scope) (sample, error) {
	traced := sc.t != nil
	s := sample{ops: 1, layer: map[string]float64{}}
	cfg, err := socgen.ConfigByIndex(mlSoC)
	if err != nil {
		return s, err
	}

	// Set-up: the dynamic-simulation phase that labels the dataset.
	sp := sc.child("ssresf.analyze")
	an, err := ssresf.AnalyzeSoC(cfg, w.ec.Workload, w.ec.DB, w.ec.OptionsFor(mlSoC))
	s.setup = sp.end()
	if err != nil {
		return s, err
	}
	opts := ssresf.TrainOptions{Folds: 10, Seed: 1 + w.env.inputSeed(k)}

	cpu0 := selfCPU()
	op := sc.child("ml")
	sp = op.child("ssresf.train")
	cls, err := ssresf.Train(an.Dataset, opts)
	sp.end()
	if err != nil {
		op.end()
		return s, err
	}
	var walls []time.Duration
	var firstPred []bool
	for n := 0; n < mlPredicts; n++ {
		sp = op.child("ssresf.predict")
		pred, _, err := cls.Predict(an.Run.Flat)
		walls = append(walls, sp.end())
		if err != nil {
			op.end()
			return s, err
		}
		if n == 0 {
			firstPred = pred
		} else if !equalBools(pred, firstPred) {
			op.end()
			return s, fmt.Errorf("Predict call %d disagrees with call 0", n)
		}
	}
	s.wall = op.end()
	s.cpu = selfCPU() - cpu0
	s.units = float64(len(firstPred))
	s.unitWall = time.Duration(median(seconds(walls)) * float64(time.Second))

	chk := sc.child("verify")
	defer chk.end()
	model := fmt.Sprintf("%+v sv=%d iters=%d", cls.TrainCV, cls.Model.NumSV(), cls.Model.Iters())
	if err := w.env.exact.pin(fmt.Sprintf("input%d.model", k), model); err != nil {
		return s, err
	}
	if err := w.env.exact.pinFloat(fmt.Sprintf("input%d.accuracy_pct", k), 100*cls.TrainCV.Accuracy()); err != nil {
		return s, err
	}
	if acc := cls.TrainCV.Accuracy(); acc < mlAccuracyFloor {
		return s, fmt.Errorf("pooled CV accuracy %.4f is below the floor %.2f", acc, mlAccuracyFloor)
	}
	if len(firstPred) != len(an.Run.Flat.Cells) {
		return s, fmt.Errorf("Predict classified %d of %d cells", len(firstPred), len(an.Run.Flat.Cells))
	}

	if traced {
		s.layer["ssresf.dataset_rows"] = float64(len(an.Dataset.Y))
		s.layer["svm.iters"] = float64(cls.Model.Iters())
		s.layer["svm.num_sv"] = float64(cls.Model.NumSV())
		s.layer["svm.cv_accuracy_pct"] = 100 * cls.TrainCV.Accuracy()
		s.layer["svm.predict_us_per_node"] = micros(s.unitWall) / s.units
		if s.unitWall > 0 {
			// The paper's speed-up counterpart: dynamic-simulation phase
			// wall over one prediction pass. Informational — faster
			// simulation lowers it.
			s.layer["ssresf.predict_speedup_x"] = s.setup.Seconds() / s.unitWall.Seconds()
		}
		if err := w.layerProbes(chk, an, opts); err != nil {
			return s, err
		}
	}
	return s, nil
}

// layerProbes times the stages inside ssresf.Train and Predict one by
// one, on the same data: from outside, Train is a single call.
func (w *mlWorkload) layerProbes(sc scope, an *ssresf.Analysis, opts ssresf.TrainOptions) error {
	ds := an.Dataset
	sp := sc.child("features.extract")
	features.Extract(an.Run.Flat)
	sp.end()
	sp = sc.child("features.rank")
	rank := features.RankByCorrelation(ds.X, ds.Y)
	sp.end()
	n := features.PaperFeatureCount
	if n > len(rank) {
		n = len(rank)
	}
	sel, err := ds.X.Select(rank[:n])
	if err != nil {
		return err
	}
	norm := features.FitScaler(sel).Transform(sel)
	cfg := svm.DefaultConfig()
	cfg.Seed = opts.Seed
	sp = sc.child("svm.cv")
	_, err = svm.CrossValidate(norm.Rows, ds.Y, opts.Folds, cfg)
	sp.end()
	if err != nil {
		return err
	}
	sp = sc.child("svm.fit")
	_, err = svm.Train(norm.Rows, ds.Y, cfg)
	sp.end()
	return err
}

func equalBools(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
