package inject

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/riscv"
	"repro/internal/socgen"
	"repro/internal/xrand"
)

// resultKey flattens the deterministic parts of a Result for comparison:
// injections, chip SER, cluster stats and module stats. Wall-clock and
// eval counters are intentionally excluded — they are work metrics, and
// reducing them is the whole point of warm starts.
func assertResultsIdentical(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if len(a.Injections) != len(b.Injections) {
		t.Fatalf("%s: injection counts differ: %d vs %d", label, len(a.Injections), len(b.Injections))
	}
	for i := range a.Injections {
		if a.Injections[i] != b.Injections[i] {
			t.Fatalf("%s: injection %d differs: %+v vs %+v", label, i, a.Injections[i], b.Injections[i])
		}
	}
	if a.ChipSER != b.ChipSER {
		t.Fatalf("%s: ChipSER differs: %v vs %v", label, a.ChipSER, b.ChipSER)
	}
	if len(a.Clusters) != len(b.Clusters) {
		t.Fatalf("%s: cluster counts differ", label)
	}
	for i := range a.Clusters {
		if a.Clusters[i] != b.Clusters[i] {
			t.Fatalf("%s: cluster %d stats differ: %+v vs %+v", label, i, a.Clusters[i], b.Clusters[i])
		}
	}
	if len(a.Modules) != len(b.Modules) {
		t.Fatalf("%s: module counts differ", label)
	}
	for name, ma := range a.Modules {
		mb, ok := b.Modules[name]
		if !ok {
			t.Fatalf("%s: module %s missing", label, name)
		}
		if *ma != *mb {
			t.Fatalf("%s: module %s stats differ: %+v vs %+v", label, name, *ma, *mb)
		}
	}
}

// TestWarmColdWorkerDeterminism is the warm-start regression gate: the
// campaign result must be bit-identical across worker counts, across
// checkpoint pitches, and between the warm-start and replay-from-zero
// paths.
func TestWarmColdWorkerDeterminism(t *testing.T) {
	runWith := func(mutate func(*Options)) *Result {
		opts := testOptions()
		mutate(&opts)
		run := prep(t, 1, opts)
		if err := run.Campaign.Run(run.Result); err != nil {
			t.Fatal(err)
		}
		return run.Result
	}
	ref := runWith(func(o *Options) { o.Workers = 1; o.ColdStart = true })
	variants := map[string]func(*Options){
		"cold-8-workers":  func(o *Options) { o.Workers = 8; o.ColdStart = true },
		"warm-1-worker":   func(o *Options) { o.Workers = 1 },
		"warm-8-workers":  func(o *Options) { o.Workers = 8 },
		"warm-pitch-1":    func(o *Options) { o.Workers = 4; o.CheckpointEveryCycles = 1 },
		"warm-pitch-5":    func(o *Options) { o.Workers = 4; o.CheckpointEveryCycles = 5 },
		"warm-pitch-huge": func(o *Options) { o.Workers = 4; o.CheckpointEveryCycles = 1000 },
	}
	for label, mutate := range variants {
		got := runWith(mutate)
		assertResultsIdentical(t, label, ref, got)
	}
}

// TestWarmStartReducesWork checks the perf contract behind Table III's
// campaign-runtime reduction: warm starts must cut injection-phase cell
// evaluations by the floor below on the SoC workload, and the early-exit
// pruning must actually fire. Eval counts are deterministic per seed, so
// each evalsFloor in this package is set to 80% of the ratio its campaign
// measures and cannot flake; a change that legitimately moves the ratio
// moves the floor.
func TestWarmStartReducesWork(t *testing.T) {
	opts := testOptions()
	opts.SampleFrac = 0.08
	cold := opts
	cold.ColdStart = true
	coldRun := prep(t, 1, cold)
	if err := coldRun.Campaign.Run(coldRun.Result); err != nil {
		t.Fatal(err)
	}
	warmRun := prep(t, 1, opts)
	if err := warmRun.Campaign.Run(warmRun.Result); err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, "warm-vs-cold", coldRun.Result, warmRun.Result)
	if coldRun.Result.WarmStarts != 0 || coldRun.Result.PrunedRuns != 0 {
		t.Errorf("cold campaign reported warm starts: %+v", coldRun.Result.WarmStarts)
	}
	if warmRun.Result.WarmStarts == 0 {
		t.Fatal("warm campaign never restored a checkpoint")
	}
	// PrunedRuns also counts the runs the latching-window prefilter
	// decides before any restore; convergence must prune beyond those.
	c, decided := warmRun.Campaign, uint64(0)
	for _, j := range c.DrawJobs() {
		inj, err := c.injection(j)
		if err != nil {
			t.Fatal(err)
		}
		if _, idx := c.checkpointBefore(j.TimePS); idx >= 0 && c.latch.decides(&inj) {
			decided++
		}
	}
	if warmRun.Result.PrunedRuns <= decided {
		t.Error("no run was pruned by convergence detection — masked faults should converge")
	}
	const evalsFloor = 8.9 // 80% of the 11.24x measured
	if w, c := warmRun.Result.InjectEvals, coldRun.Result.InjectEvals; float64(c) < evalsFloor*float64(w) {
		t.Errorf("warm starts saved too little work: warm %d evals vs cold %d (want >= %.1fx reduction)", w, c, evalsFloor)
	}
}

// TestWarmStartLevelSim runs the warm path on the oblivious engine, which
// exercises the LevelSim Snapshot/Restore/MatchesCheckpoint path.
func TestWarmStartLevelSim(t *testing.T) {
	opts := testOptions()
	opts.Engine = "LevelSim"
	opts.SampleFrac = 0.02
	cold := opts
	cold.ColdStart = true
	coldRun := prep(t, 1, cold)
	if err := coldRun.Campaign.Run(coldRun.Result); err != nil {
		t.Fatal(err)
	}
	warmRun := prep(t, 1, opts)
	if err := warmRun.Campaign.Run(warmRun.Result); err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, "levelsim-warm-vs-cold", coldRun.Result, warmRun.Result)
	if warmRun.Result.WarmStarts == 0 {
		t.Fatal("LevelSim warm campaign never restored a checkpoint")
	}
	const evalsFloor = 6.2 // 80% of the 7.78x measured
	if w, c := warmRun.Result.InjectEvals, coldRun.Result.InjectEvals; float64(c) < evalsFloor*float64(w) {
		t.Errorf("LevelSim warm path saved too little work: warm %d evals vs cold %d (want >= %.1fx reduction)", w, c, evalsFloor)
	}
}

// TestInjectionWindowShortPlans covers the degenerate stimulus plans that
// used to panic via Intn of a non-positive bound.
func TestInjectionWindowShortPlans(t *testing.T) {
	for _, durCycles := range []uint64{1, 2, 4, 5, 6} {
		period := uint64(socgen.ClockPeriodPS)
		c := &Campaign{
			plan: &socgen.StimulusPlan{PeriodPS: period, DurationPS: durCycles * period},
		}
		rng := xrand.New(1)
		for i := 0; i < 50; i++ {
			tm := c.injectionWindow(rng)
			if tm >= c.plan.DurationPS {
				t.Fatalf("duration %d cycles: strike %dps beyond plan end %dps", durCycles, tm, c.plan.DurationPS)
			}
		}
	}
}

// TestInjectionWindowMinimalWorkload runs a full campaign on the shortest
// real workload the stimulus builder produces.
func TestInjectionWindowMinimalWorkload(t *testing.T) {
	cfg, err := socgen.ConfigByIndex(1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := socgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := netlist.Flatten(d)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := socgen.RunWorkload(riscv.MemcpyProgram(4), 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := socgen.BuildStimulus(f, wl)
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions()
	opts.SampleFrac = 0.02
	camp, res, err := New(f, plan, fault.DefaultDB(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := camp.Run(res); err != nil {
		t.Fatal(err)
	}
	if len(res.Injections) == 0 {
		t.Fatal("minimal-duration campaign performed no injections")
	}
	for _, inj := range res.Injections {
		if inj.TimePS >= plan.DurationPS {
			t.Fatalf("strike %dps beyond plan end %dps", inj.TimePS, plan.DurationPS)
		}
	}
}
