// Command ssresf drives the full framework pipeline end to end on one
// benchmark: netlist generation, clustering, fault injection, soft-error
// analysis, SVM training and fast sensitivity prediction.
//
// Usage:
//
//	ssresf [-soc 1] [-sample 0.2] [-seed 1] [-grid] [-v out.v] [-db out.sedb]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/fault"
	"repro/internal/inject"
	"repro/internal/mlmetrics"
	"repro/internal/netlist"
	"repro/internal/riscv"
	"repro/internal/socgen"
	"repro/internal/ssresf"
)

func main() {
	socIdx := flag.Int("soc", 1, "Table I benchmark index (1-10)")
	sample := flag.Float64("sample", 0.2, "per-cluster sampling fraction")
	seed := flag.Uint64("seed", 1, "random seed")
	grid := flag.Bool("grid", false, "grid-search SVM hyper-parameters")
	verilogOut := flag.String("v", "", "also write the benchmark netlist as Verilog to this file")
	dbOut := flag.String("db", "", "also write the soft-error database to this file")
	flag.Parse()

	cfg, err := socgen.ConfigByIndex(*socIdx)
	if err != nil {
		fatal(err)
	}
	db := fault.DefaultDB()

	if *verilogOut != "" {
		d, err := socgen.Generate(cfg)
		if err != nil {
			fatal(err)
		}
		f, err := os.Create(*verilogOut)
		if err != nil {
			fatal(err)
		}
		if err := netlist.WriteVerilog(f, d); err != nil {
			fatal(err)
		}
		f.Close()
		fmt.Printf("wrote netlist to %s\n", *verilogOut)
	}
	if *dbOut != "" {
		f, err := os.Create(*dbOut)
		if err != nil {
			fatal(err)
		}
		if err := fault.Marshal(f, db); err != nil {
			fatal(err)
		}
		f.Close()
		fmt.Printf("wrote soft-error database to %s\n", *dbOut)
	}

	opts := inject.DefaultOptions()
	opts.SampleFrac = *sample
	opts.Seed = *seed
	opts.KN = cfg.KN

	fmt.Printf("== dynamic simulation phase: %s ==\n", cfg.Name)
	an, err := ssresf.AnalyzeSoC(cfg, riscv.MemcpyProgram(16), db, opts)
	if err != nil {
		fatal(err)
	}
	fmt.Print(an.Run.Result.String())

	fmt.Printf("\n== machine learning phase ==\n")
	cls, err := ssresf.Train(an.Dataset, ssresf.TrainOptions{
		GridSearch: *grid,
		Seed:       *seed,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("features: %v\n", cls.Selected)
	fmt.Printf("kernel %s, C=%g, %d-fold CV: %s\n", cls.Config.Kernel.Name(), cls.Config.C, cls.FoldsK, cls.TrainCV.String())

	pred, dur, err := cls.Predict(an.Run.Flat)
	if err != nil {
		fatal(err)
	}
	labels := an.Run.Result.LabelCellsRefined(an.Run.Result.ChipSER)
	var cm mlmetrics.Confusion
	high := 0
	for i := range pred {
		cm.Count(pred[i], labels[i])
		if pred[i] {
			high++
		}
	}
	simTime := an.Run.Result.GoldenWall + an.Run.Result.InjectWall
	fmt.Printf("\n== prediction service ==\n")
	fmt.Printf("predicted %d/%d nodes highly sensitive in %v\n", high, len(pred), dur)
	fmt.Printf("agreement with simulation labels: %s\n", cm.String())
	if dur > 0 {
		fmt.Printf("speed-up vs full simulation: %.1fx\n", float64(simTime)/float64(dur))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ssresf:", err)
	os.Exit(1)
}
