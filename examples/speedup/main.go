// speedup reproduces Table III and Fig. 7 on PULP SoC1: fault-injection
// campaigns on both simulation engines (EventSim in the VCS role, LevelSim
// in the CVC role) under five flux conditions, against the SVM model's
// prediction time; then the distribution of highly sensitive nodes across
// memory, bus, and CPU logic per source. It closes with the checkpoint
// warm-start comparison: the same campaign replayed from t=0 vs restored
// from golden checkpoints, which only simulates each injection's
// post-strike tail (see DESIGN.md).
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/fault"
	"repro/internal/inject"
	"repro/internal/riscv"
	"repro/internal/socgen"
	"repro/internal/ssresf"
)

func main() {
	ec := ssresf.DefaultExperimentConfig(false)
	fluxes := []float64{4e8, 5e8, 6e8, 7e8, 8e8}

	rows, avg, err := ssresf.TableIII(ec, fluxes)
	if err != nil {
		log.Fatal(err)
	}
	ssresf.RenderTableIII(os.Stdout, rows, avg)
	fmt.Println()

	figRows, err := ssresf.Fig7(ec, fluxes)
	if err != nil {
		log.Fatal(err)
	}
	ssresf.RenderFig7(os.Stdout, figRows)
	fmt.Println()

	warmVsCold()
}

// warmVsCold runs one SoC1 campaign twice — cold (every injection replays
// the workload from t=0) and warm (every injection restores the latest
// golden checkpoint before its strike and simulates only the tail) — and
// prints the work reduction. The verdicts are bit-identical by design.
func warmVsCold() {
	cfg, err := socgen.ConfigByIndex(1)
	if err != nil {
		log.Fatal(err)
	}
	opts := inject.DefaultOptions()
	coldOpts := opts
	coldOpts.ColdStart = true

	cold, err := inject.RunSoC(cfg, riscv.MemcpyProgram(16), fault.DefaultDB(), coldOpts)
	if err != nil {
		log.Fatal(err)
	}
	warm, err := inject.RunSoC(cfg, riscv.MemcpyProgram(16), fault.DefaultDB(), opts)
	if err != nil {
		log.Fatal(err)
	}
	cr, wr := cold.Result, warm.Result
	if len(cr.Injections) != len(wr.Injections) {
		log.Fatalf("warm/cold injection counts differ: %d vs %d", len(cr.Injections), len(wr.Injections))
	}
	for i := range cr.Injections {
		if cr.Injections[i] != wr.Injections[i] {
			log.Fatalf("warm/cold verdict mismatch at injection %d", i)
		}
	}
	fmt.Printf("checkpoint warm-start on %s (%d injections, verdicts bit-identical):\n",
		cr.Design, len(cr.Injections))
	fmt.Printf("  cold: %12d cell evals  %v\n", cr.InjectEvals, cr.InjectWall)
	fmt.Printf("  warm: %12d cell evals  %v  (%d warm starts, %d pruned by latching window or re-convergence)\n",
		wr.InjectEvals, wr.InjectWall, wr.WarmStarts, wr.PrunedRuns)
	fmt.Printf("  reduction: %.1fx cell evals, %.1fx wall clock\n",
		float64(cr.InjectEvals)/float64(wr.InjectEvals),
		float64(cr.InjectWall)/float64(wr.InjectWall))
}
