// Package ssresf is the framework façade: it composes the substrates into
// the paper's two-phase pipeline (Fig. 1). The dynamic-simulation phase
// clusters the gate-level netlist, runs the fault-injection campaign and
// produces the sensitive-node list; the machine-learning phase engineers
// node features, trains the SVM classifier, and serves fast sensitivity
// predictions in place of further simulation.
package ssresf

import (
	"fmt"
	"time"

	"repro/internal/fault"
	"repro/internal/features"
	"repro/internal/inject"
	"repro/internal/mlmetrics"
	"repro/internal/netlist"
	"repro/internal/riscv"
	"repro/internal/socgen"
	"repro/internal/svm"
)

// Dataset is a labeled feature matrix over the cells of one design.
type Dataset struct {
	Design string
	X      *features.Matrix
	Y      []bool
	// CellIDs maps dataset rows back to flat-design cells.
	CellIDs []int
}

// PositiveCount returns the number of highly-sensitive examples.
func (d *Dataset) PositiveCount() int {
	n := 0
	for _, l := range d.Y {
		if l {
			n++
		}
	}
	return n
}

// Analysis is the output of the dynamic-simulation phase on one benchmark.
type Analysis struct {
	Run     *inject.SoCRun
	Dataset *Dataset
}

// AnalyzeSoC runs the full dynamic-simulation phase on one Table I
// benchmark: generate, cluster, inject, label, extract features.
func AnalyzeSoC(cfg socgen.Config, prog riscv.Program, db *fault.DB, opts inject.Options) (*Analysis, error) {
	run, err := inject.RunSoC(cfg, prog, db, opts)
	if err != nil {
		return nil, err
	}
	ds, err := BuildDataset(run.Flat, run.Result)
	if err != nil {
		return nil, err
	}
	return &Analysis{Run: run, Dataset: ds}, nil
}

// BuildDataset extracts the node features of every cell and labels them
// from the campaign result (refined rule: sampled outcomes override cluster
// verdicts, threshold = chip SER).
func BuildDataset(f *netlist.Flat, res *inject.Result) (*Dataset, error) {
	raw := features.Extract(f)
	labels := res.LabelCellsRefined(res.ChipSER)
	cleaned, cleanedLabels, kept := features.Clean(raw, labels)
	if len(cleaned.Rows) == 0 {
		return nil, fmt.Errorf("ssresf: dataset for %s is empty after cleaning", f.Name)
	}
	return &Dataset{Design: f.Name, X: cleaned, Y: cleanedLabels, CellIDs: kept}, nil
}

// Classifier is the trained sensitivity predictor: feature selection,
// scaling and SVM bundled for reuse on unseen netlists.
type Classifier struct {
	Model    *svm.Model
	Scaler   *features.Scaler
	Columns  []int
	Config   svm.Config
	TrainCV  mlmetrics.Confusion
	FoldsK   int
	Selected []string
}

// TrainOptions configures classifier training.
type TrainOptions struct {
	// FeatureCount selects the top-k ranked features (0 means the paper's
	// six).
	FeatureCount int
	// Folds is the cross-validation fold count (default 10, as the paper).
	Folds int
	// GridSearch enables (C, γ) tuning; otherwise DefaultConfig is used.
	GridSearch bool
	Seed       uint64
}

// Train fits the classifier on a dataset, following the paper's recipe:
// rank features, keep the best k, min-max normalize, grid-search (C, γ)
// with k-fold CV, and record the pooled CV confusion matrix.
func Train(ds *Dataset, opts TrainOptions) (*Classifier, error) {
	if opts.FeatureCount <= 0 {
		opts.FeatureCount = features.PaperFeatureCount
	}
	if opts.Folds <= 0 {
		opts.Folds = 10
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	rank := features.RankByCorrelation(ds.X, ds.Y)
	if opts.FeatureCount > len(rank) {
		opts.FeatureCount = len(rank)
	}
	cols := append([]int{}, rank[:opts.FeatureCount]...)
	sel, err := ds.X.Select(cols)
	if err != nil {
		return nil, err
	}
	scaler := features.FitScaler(sel)
	norm := scaler.Transform(sel)

	cfg := svm.DefaultConfig()
	cfg.Seed = opts.Seed
	if opts.GridSearch {
		cs, gammas := svm.StandardGrid()
		tuned, _, err := svm.GridSearch(norm.Rows, ds.Y, cs, gammas, opts.Folds, opts.Seed)
		if err == nil {
			cfg = tuned
		}
	}
	// The final fit shares nothing with the folds, so it trains alongside
	// them; errors are still reported cross-validation first.
	var model *svm.Model
	var fitErr error
	fitted := make(chan struct{})
	go func() {
		defer close(fitted)
		model, fitErr = svm.Train(norm.Rows, ds.Y, cfg)
	}()
	cv, err := svm.CrossValidate(norm.Rows, ds.Y, opts.Folds, cfg)
	<-fitted
	if err != nil {
		return nil, fmt.Errorf("ssresf: cross-validation: %v", err)
	}
	if fitErr != nil {
		return nil, fmt.Errorf("ssresf: final fit: %v", fitErr)
	}
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = ds.X.Names[c]
	}
	return &Classifier{
		Model:    model,
		Scaler:   scaler,
		Columns:  cols,
		Config:   cfg,
		TrainCV:  cv,
		FoldsK:   opts.Folds,
		Selected: names,
	}, nil
}

// Predict classifies every cell of a flattened design, returning the
// per-cell sensitivity predictions and the wall-clock prediction time —
// the quantity Table III compares against full simulation. A cell is
// predicted sensitive when its decision value is positive, as in
// svm.Model.Predict.
func (c *Classifier) Predict(f *netlist.Flat) ([]bool, time.Duration, error) {
	start := time.Now()
	dv, err := c.DecisionValues(f)
	if err != nil {
		return nil, 0, err
	}
	out := make([]bool, len(dv))
	for i, d := range dv {
		out[i] = d > 0
	}
	return out, time.Since(start), nil
}

// DecisionValues returns the SVM decision value for every cell — the score
// input for ROC analysis (Fig. 6).
func (c *Classifier) DecisionValues(f *netlist.Flat) ([]float64, error) {
	sel, err := features.Extract(f).Select(c.Columns)
	if err != nil {
		return nil, err
	}
	norm := c.Scaler.Transform(sel)
	out := make([]float64, len(norm.Rows))
	for i, row := range norm.Rows {
		out[i] = c.Model.Decision(row)
	}
	return out, nil
}
