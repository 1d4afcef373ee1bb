// Package repro_bench is the benchmark harness that regenerates every
// table and figure of the paper's evaluation section (go test -bench .).
// Each BenchmarkTableN/BenchmarkFigN prints the reproduced rows once and
// reports the headline numbers as benchmark metrics; the Benchmark*Ablation
// benches cover the design choices DESIGN.md calls out.
package repro_bench

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/inject"
	"repro/internal/netlist"
	"repro/internal/riscv"
	"repro/internal/sim"
	"repro/internal/socgen"
	"repro/internal/ssresf"
	"repro/internal/svm"
	"repro/internal/xrand"
)

// benchConfig keeps bench sampling modest so the full harness completes in
// minutes; cmd/tables runs the full-fidelity version.
func benchConfig() ssresf.ExperimentConfig {
	ec := ssresf.DefaultExperimentConfig(true)
	ec.Inject.SampleFrac = 0.12
	ec.Inject.MinPerCluster = 2
	ec.Train.Folds = 5
	return ec
}

var printOnce sync.Map

func printFirst(key string, f func()) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		f()
	}
}

func BenchmarkTableI(b *testing.B) {
	ec := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := ssresf.TableI(ec)
		if err != nil {
			b.Fatal(err)
		}
		printFirst("table1", func() {
			fmt.Println()
			ssresf.RenderTableI(os.Stdout, rows)
		})
		b.ReportMetric(rows[0].BusSER, "soc1-bus-ser-%")
		b.ReportMetric(rows[9].MemSER, "soc10-mem-ser-%")
	}
}

func BenchmarkTableII(b *testing.B) {
	ec := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, avg, err := ssresf.TableII(ec, nil)
		if err != nil {
			b.Fatal(err)
		}
		printFirst("table2", func() {
			fmt.Println()
			ssresf.RenderTableII(os.Stdout, rows, avg)
		})
		b.ReportMetric(100*avg.Accuracy, "avg-accuracy-%")
		b.ReportMetric(100*avg.TNR, "avg-tnr-%")
	}
}

func BenchmarkTableIII(b *testing.B) {
	ec := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, avg, err := ssresf.TableIII(ec, nil)
		if err != nil {
			b.Fatal(err)
		}
		printFirst("table3", func() {
			fmt.Println()
			ssresf.RenderTableIII(os.Stdout, rows, avg)
		})
		b.ReportMetric(avg.SpeedupVCS, "avg-speedup-vcs-x")
		b.ReportMetric(avg.SpeedupCVC, "avg-speedup-cvc-x")
		b.ReportMetric(100*avg.Accuracy, "avg-accuracy-%")
	}
}

func soc1Analysis(b *testing.B, ec ssresf.ExperimentConfig) *ssresf.Analysis {
	b.Helper()
	cfg, err := socgen.ConfigByIndex(1)
	if err != nil {
		b.Fatal(err)
	}
	an, err := ssresf.AnalyzeSoC(cfg, ec.Workload, ec.DB, ec.OptionsFor(1))
	if err != nil {
		b.Fatal(err)
	}
	return an
}

func BenchmarkFig5(b *testing.B) {
	ec := benchConfig()
	an := soc1Analysis(b, ec)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := ssresf.Fig5(an.Dataset, 10, 1)
		if err != nil {
			b.Fatal(err)
		}
		printFirst("fig5", func() {
			fmt.Println()
			ssresf.RenderFig5(os.Stdout, pts)
		})
		b.ReportMetric(float64(ssresf.BestFeatureCount(pts)), "best-feature-count")
	}
}

func BenchmarkFig6(b *testing.B) {
	ec := benchConfig()
	an := soc1Analysis(b, ec)
	cls, err := ssresf.Train(an.Dataset, ec.Train)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		curve, auc, err := ssresf.Fig6(cls, an)
		if err != nil {
			b.Fatal(err)
		}
		printFirst("fig6", func() {
			fmt.Println()
			ssresf.RenderFig6(os.Stdout, curve, auc)
		})
		b.ReportMetric(auc, "auc")
	}
}

func BenchmarkFig7(b *testing.B) {
	ec := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := ssresf.Fig7(ec, []float64{4e8, 6e8, 8e8})
		if err != nil {
			b.Fatal(err)
		}
		printFirst("fig7", func() {
			fmt.Println()
			ssresf.RenderFig7(os.Stdout, rows)
		})
	}
}

// BenchmarkEngines compares raw simulation throughput of the two engines
// on the same SoC workload — the ablation behind the VCS/CVC runtime gap.
func BenchmarkEngines(b *testing.B) {
	cfg, err := socgen.ConfigByIndex(1)
	if err != nil {
		b.Fatal(err)
	}
	d, err := socgen.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	f, err := netlist.Flatten(d)
	if err != nil {
		b.Fatal(err)
	}
	wl, err := socgen.RunWorkload(riscv.MemcpyProgram(16), 32)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := socgen.BuildStimulus(f, wl)
	if err != nil {
		b.Fatal(err)
	}
	for _, kind := range []sim.EngineKind{sim.KindEvent, sim.KindLevel} {
		b.Run(string(kind), func(b *testing.B) {
			var evals uint64
			for i := 0; i < b.N; i++ {
				e, err := sim.New(kind, f)
				if err != nil {
					b.Fatal(err)
				}
				if err := plan.Apply(e); err != nil {
					b.Fatal(err)
				}
				if err := e.Run(plan.DurationPS); err != nil {
					b.Fatal(err)
				}
				evals = e.CellEvals()
			}
			b.ReportMetric(float64(evals), "cell-evals/run")
		})
	}
}

// runWarmColdPair executes the same SoC1 campaign twice — cold
// (replay-from-zero) and warm (checkpoint-restored) — and fails the bench
// if the two results are not bit-identical.
func runWarmColdPair(b *testing.B, kind sim.EngineKind, frac float64) (cold, warm *inject.SoCRun) {
	b.Helper()
	opts := inject.DefaultOptions()
	opts.Engine = kind
	opts.SampleFrac = frac
	return runWarmColdPairOpts(b, opts)
}

// runWarmColdPairOpts is runWarmColdPair over explicit options (the
// compare_vcd variant flips the detector).
func runWarmColdPairOpts(b *testing.B, opts inject.Options) (cold, warm *inject.SoCRun) {
	b.Helper()
	cfg, err := socgen.ConfigByIndex(1)
	if err != nil {
		b.Fatal(err)
	}
	coldOpts := opts
	coldOpts.ColdStart = true
	cold, err = inject.RunSoC(cfg, riscv.MemcpyProgram(16), fault.DefaultDB(), coldOpts)
	if err != nil {
		b.Fatal(err)
	}
	warm, err = inject.RunSoC(cfg, riscv.MemcpyProgram(16), fault.DefaultDB(), opts)
	if err != nil {
		b.Fatal(err)
	}
	if len(cold.Result.Injections) != len(warm.Result.Injections) {
		b.Fatalf("warm/cold injection counts differ: %d vs %d", len(cold.Result.Injections), len(warm.Result.Injections))
	}
	for i := range cold.Result.Injections {
		if cold.Result.Injections[i] != warm.Result.Injections[i] {
			b.Fatalf("warm/cold verdicts differ at %d: %+v vs %+v", i, cold.Result.Injections[i], warm.Result.Injections[i])
		}
	}
	if cold.Result.ChipSER != warm.Result.ChipSER {
		b.Fatalf("warm/cold chip SER differ: %v vs %v", cold.Result.ChipSER, warm.Result.ChipSER)
	}
	return cold, warm
}

// reportWarmCold reports the pair's deterministic work ratio and its
// wall-clock ratio as benchmark metrics. (The per-commit numbers live in
// BENCHMARK.json's per-layer metrics; these benchmarks are ablations.)
func reportWarmCold(b *testing.B, cold, warm *inject.SoCRun) {
	b.Helper()
	cr, wr := cold.Result, warm.Result
	if wr.InjectEvals > 0 {
		b.ReportMetric(float64(cr.InjectEvals)/float64(wr.InjectEvals), "evals-reduction-x")
	}
	if wr.InjectWall > 0 {
		b.ReportMetric(float64(cr.InjectWall)/float64(wr.InjectWall), "wall-reduction-x")
	}
	b.ReportMetric(float64(cr.InjectEvals), "cold-inject-evals")
	b.ReportMetric(float64(wr.InjectEvals), "warm-inject-evals")
	b.ReportMetric(float64(wr.PrunedRuns), "pruned-runs")
}

// BenchmarkWarmVsCold measures the tentpole perf win: injections that
// warm-start from golden checkpoints and simulate only the post-strike
// tail, vs the legacy replay-from-zero path, at default options on the
// SoC1 netlist. Verdicts are asserted bit-identical inside the bench.
func BenchmarkWarmVsCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cold, warm := runWarmColdPair(b, sim.KindEvent, inject.DefaultOptions().SampleFrac)
		reportWarmCold(b, cold, warm)
	}
}

// BenchmarkWarmVsColdLevelSim runs the same comparison on the levelized
// oblivious engine, where pruned tails avoid full-netlist sweeps. The
// sample fraction is reduced because the cold baseline is much slower.
func BenchmarkWarmVsColdLevelSim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cold, warm := runWarmColdPair(b, sim.KindLevel, 0.04)
		reportWarmCold(b, cold, warm)
	}
}

// BenchmarkWarmVsColdVCD runs the comparison with the faithful VCD
// detector: the cold side replays every injection from t=0 and diffs full
// traces (the paper's original method and the oracle), the warm side
// restores golden checkpoints and diffs its tail against the golden trace
// suffix. Verdict bit-identity is asserted by the shared pair runner; the
// benchmark additionally fails if the warm VCD path silently fell back to
// cold. The sample fraction is reduced because every cold VCD run parses
// and diffs a full trace.
func BenchmarkWarmVsColdVCD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := inject.DefaultOptions()
		opts.SampleFrac = 0.08
		opts.CompareVCD = true
		cold, warm := runWarmColdPairOpts(b, opts)
		if warm.Result.WarmStarts == 0 {
			b.Fatal("CompareVCD campaign never warm-started")
		}
		reportWarmCold(b, cold, warm)
	}
}

// BenchmarkSamplingAblation sweeps the per-cluster sampling fraction,
// trading campaign runtime against chip-SER estimate stability.
func BenchmarkSamplingAblation(b *testing.B) {
	for _, frac := range []float64{0.05, 0.15, 0.35} {
		b.Run(fmt.Sprintf("frac=%.2f", frac), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := inject.DefaultOptions()
				opts.SampleFrac = frac
				opts.KN = 5
				cfg, _ := socgen.ConfigByIndex(1)
				run, err := inject.RunSoC(cfg, riscv.MemcpyProgram(16), fault.DefaultDB(), opts)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(len(run.Result.Injections)), "injections")
				b.ReportMetric(run.Result.ChipSER, "chip-ser")
			}
		})
	}
}

// BenchmarkClusterDepthAblation sweeps Eq. (1)'s layer depth LN and reports
// cluster compactness.
func BenchmarkClusterDepthAblation(b *testing.B) {
	cfg, _ := socgen.ConfigByIndex(5)
	d, err := socgen.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	f, err := netlist.Flatten(d)
	if err != nil {
		b.Fatal(err)
	}
	trails := make([][]string, len(f.Cells))
	for i, c := range f.Cells {
		trails[i] = c.Trail
	}
	for _, ln := range []int{1, 2, 3, 4} {
		b.Run(fmt.Sprintf("LN=%d", ln), func(b *testing.B) {
			var quality float64
			for i := 0; i < b.N; i++ {
				res, err := cluster.ClusterTrails(trails, 14, ln, xrand.New(1))
				if err != nil {
					b.Fatal(err)
				}
				quality = res.MeanIntraDistance(trails)
			}
			b.ReportMetric(quality, "mean-intra-distance")
		})
	}
}

// BenchmarkKernelAblation compares linear vs RBF kernels on the SoC1 node
// dataset.
func BenchmarkKernelAblation(b *testing.B) {
	ec := benchConfig()
	an := soc1Analysis(b, ec)
	kernels := map[string]svm.Kernel{
		"linear": svm.Linear{},
		"rbf0.5": svm.RBF{Gamma: 0.5},
		"rbf2.0": svm.RBF{Gamma: 2.0},
	}
	for name, k := range kernels {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := svm.DefaultConfig()
				cfg.Kernel = k
				sel, err := an.Dataset.X.Select([]int{0, 1, 2, 3, 4, 5})
				if err != nil {
					b.Fatal(err)
				}
				cm, err := svm.CrossValidate(sel.Rows, an.Dataset.Y, 5, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*cm.Accuracy(), "cv-accuracy-%")
			}
		})
	}
}

// BenchmarkLETSweep runs the extension experiment: module SER and chip
// cross-sections across the database's three tabulated LET values.
func BenchmarkLETSweep(b *testing.B) {
	ec := benchConfig()
	for i := 0; i < b.N; i++ {
		pts, err := ssresf.LETSweep(ec, 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		printFirst("letsweep", func() {
			fmt.Println()
			ssresf.RenderLETSweep(os.Stdout, 1, pts)
		})
		b.ReportMetric(pts[len(pts)-1].SEUXsect, "seu-xsect-let100-cm2")
	}
}
