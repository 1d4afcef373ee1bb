// Command svmnode runs the machine-learning phase on one benchmark: a
// fault-injection campaign produces the labeled node dataset, then the SVM
// classifier is trained, cross-validated and evaluated.
//
// Usage:
//
//	svmnode -soc 1 [-features 6] [-folds 10] [-grid] [-sample 0.2] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/fault"
	"repro/internal/inject"
	"repro/internal/mlmetrics"
	"repro/internal/riscv"
	"repro/internal/socgen"
	"repro/internal/ssresf"
)

func main() {
	socIdx := flag.Int("soc", 1, "Table I benchmark index (1-10)")
	nFeatures := flag.Int("features", 6, "number of ranked features to keep")
	folds := flag.Int("folds", 10, "cross-validation folds")
	grid := flag.Bool("grid", false, "grid-search (C, gamma)")
	sample := flag.Float64("sample", 0.2, "per-cluster sampling fraction")
	seed := flag.Uint64("seed", 1, "random seed")
	flag.Parse()

	cfg, err := socgen.ConfigByIndex(*socIdx)
	if err != nil {
		fatal(err)
	}
	opts := inject.DefaultOptions()
	opts.SampleFrac = *sample
	opts.Seed = *seed
	opts.KN = cfg.KN

	fmt.Fprintf(os.Stderr, "running fault-injection campaign on %s...\n", cfg.Name)
	an, err := ssresf.AnalyzeSoC(cfg, riscv.MemcpyProgram(16), fault.DefaultDB(), opts)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("dataset: %d nodes, %d highly sensitive\n", len(an.Dataset.Y), an.Dataset.PositiveCount())

	cls, err := ssresf.Train(an.Dataset, ssresf.TrainOptions{
		FeatureCount: *nFeatures,
		Folds:        *folds,
		GridSearch:   *grid,
		Seed:         *seed,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("selected features: %v\n", cls.Selected)
	fmt.Printf("kernel: %s  C=%g\n", cls.Config.Kernel.Name(), cls.Config.C)
	fmt.Printf("%d-fold CV: %s\n", cls.FoldsK, cls.TrainCV.String())

	pred, dur, err := cls.Predict(an.Run.Flat)
	if err != nil {
		fatal(err)
	}
	labels := an.Run.Result.LabelCellsRefined(an.Run.Result.ChipSER)
	var cm mlmetrics.Confusion
	for i := range pred {
		cm.Count(pred[i], labels[i])
	}
	fmt.Printf("full-design prediction in %v: %s\n", dur, cm.String())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "svmnode:", err)
	os.Exit(1)
}
