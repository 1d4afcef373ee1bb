package inject

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/riscv"
	"repro/internal/sim"
	"repro/internal/socgen"
)

func testOptions() Options {
	o := DefaultOptions()
	o.SampleFrac = 0.05
	o.MinPerCluster = 2
	o.Seed = 7
	return o
}

func prep(t testing.TB, idx int, opts Options) *SoCRun {
	t.Helper()
	cfg, err := socgen.ConfigByIndex(idx)
	if err != nil {
		t.Fatal(err)
	}
	run, err := PrepareSoC(cfg, riscv.MemcpyProgram(8), fault.DefaultDB(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestOptionValidation(t *testing.T) {
	cfg, _ := socgen.ConfigByIndex(1)
	db := fault.DefaultDB()
	bad := []Options{
		{Engine: sim.KindEvent, KN: 0, LN: 3, SampleFrac: 0.1},
		{Engine: sim.KindEvent, KN: 3, LN: 0, SampleFrac: 0.1},
		{Engine: sim.KindEvent, KN: 3, LN: 3, SampleFrac: 0},
		{Engine: sim.KindEvent, KN: 3, LN: 3, SampleFrac: 1.5},
		{Engine: sim.KindEvent, KN: 3, LN: 3, SampleFrac: 0.1, Flux: -1},
	}
	for i, o := range bad {
		if _, err := PrepareSoC(cfg, riscv.FibProgram(5), db, o); err == nil {
			t.Errorf("bad options %d accepted", i)
		}
	}
}

func TestCampaignRuns(t *testing.T) {
	run := prep(t, 1, testOptions())
	if err := run.Campaign.Run(run.Result); err != nil {
		t.Fatal(err)
	}
	r := run.Result
	if len(r.Injections) == 0 {
		t.Fatal("no injections performed")
	}
	if len(r.Clusters) != testOptions().KN {
		t.Errorf("%d clusters, want %d", len(r.Clusters), testOptions().KN)
	}
	totalCells := 0
	for _, cs := range r.Clusters {
		totalCells += cs.Cells
	}
	if totalCells != len(run.Flat.Cells) {
		t.Errorf("clusters cover %d of %d cells", totalCells, len(run.Flat.Cells))
	}
	// Both fault kinds must occur across a mixed sample.
	var seu, set int
	for _, inj := range r.Injections {
		switch inj.Kind {
		case fault.SEU:
			seu++
		case fault.SET:
			set++
		}
		if inj.TimePS < 3*run.Plan.PeriodPS {
			t.Errorf("injection at %dps inside reset window", inj.TimePS)
		}
	}
	if seu == 0 || set == 0 {
		t.Errorf("sample missed a fault kind: seu=%d set=%d", seu, set)
	}
	// Modules must all be represented.
	for _, name := range []string{"Memory", "Bus", "CPU Logic"} {
		m, ok := r.Modules[name]
		if !ok || m.Cells == 0 {
			t.Errorf("module %s missing from report", name)
		}
	}
	if r.SETXsect <= 0 || r.SEUXsect <= 0 {
		t.Error("total cross-sections must be positive")
	}
	if r.GoldenWall <= 0 || r.InjectWall <= 0 {
		t.Error("wall-clock timings missing")
	}
	if r.String() == "" {
		t.Error("report rendering empty")
	}
}

func TestCampaignDeterministic(t *testing.T) {
	a := prep(t, 1, testOptions())
	if err := a.Campaign.Run(a.Result); err != nil {
		t.Fatal(err)
	}
	b := prep(t, 1, testOptions())
	if err := b.Campaign.Run(b.Result); err != nil {
		t.Fatal(err)
	}
	if len(a.Result.Injections) != len(b.Result.Injections) {
		t.Fatalf("injection counts differ: %d vs %d", len(a.Result.Injections), len(b.Result.Injections))
	}
	for i := range a.Result.Injections {
		ia, ib := a.Result.Injections[i], b.Result.Injections[i]
		if ia.CellID != ib.CellID || ia.TimePS != ib.TimePS || ia.SoftError != ib.SoftError {
			t.Fatalf("injection %d differs: %+v vs %+v", i, ia, ib)
		}
	}
	if a.Result.ChipSER != b.Result.ChipSER {
		t.Error("chip SER not reproducible")
	}
}

func TestSomeFaultsManifest(t *testing.T) {
	opts := testOptions()
	opts.SampleFrac = 0.08
	run := prep(t, 1, opts)
	if err := run.Campaign.Run(run.Result); err != nil {
		t.Fatal(err)
	}
	se := run.Result.SoftErrorCount()
	if se == 0 {
		t.Fatal("campaign observed zero soft errors — injections are not propagating")
	}
	if se == len(run.Result.Injections) {
		t.Fatal("every injection manifested — masking is not being modeled")
	}
}

func TestSignatureMatchesVCD(t *testing.T) {
	run := prep(t, 1, testOptions())
	if err := run.Campaign.Run(run.Result); err != nil {
		t.Fatal(err)
	}
	// Cross-check a handful of verdicts against the full-VCD oracle.
	checked := 0
	for _, inj := range run.Result.Injections {
		if checked >= 6 {
			break
		}
		got, err := run.Campaign.VerifyWithVCD(inj)
		if err != nil {
			t.Fatalf("VCD verify %s: %v", inj.Path, err)
		}
		if got != inj.SoftError {
			t.Errorf("detector mismatch for %s: signature=%v vcd=%v", inj.Path, inj.SoftError, got)
		}
		checked++
	}
}

func TestCompareVCDOptionAgrees(t *testing.T) {
	optsFast := testOptions()
	fastRun := prep(t, 1, optsFast)
	if err := fastRun.Campaign.Run(fastRun.Result); err != nil {
		t.Fatal(err)
	}
	optsVCD := testOptions()
	optsVCD.CompareVCD = true
	vcdRun := prep(t, 1, optsVCD)
	if err := vcdRun.Campaign.Run(vcdRun.Result); err != nil {
		t.Fatal(err)
	}
	if len(fastRun.Result.Injections) != len(vcdRun.Result.Injections) {
		t.Fatal("sampling diverged between detector modes")
	}
	for i := range fastRun.Result.Injections {
		a, b := fastRun.Result.Injections[i], vcdRun.Result.Injections[i]
		if a.SoftError != b.SoftError {
			t.Errorf("verdict differs for %s: fast=%v vcd=%v", a.Path, a.SoftError, b.SoftError)
		}
	}
}

func TestLabeling(t *testing.T) {
	run := prep(t, 1, testOptions())
	if err := run.Campaign.Run(run.Result); err != nil {
		t.Fatal(err)
	}
	r := run.Result
	labels := r.LabelCells(r.ChipSER)
	if len(labels) != len(run.Flat.Cells) {
		t.Fatalf("%d labels for %d cells", len(labels), len(run.Flat.Cells))
	}
	// All cells of one cluster share a label.
	clusterLabel := map[int]bool{}
	for cellID, ci := range r.ClusterOf {
		if prev, seen := clusterLabel[ci]; seen && prev != labels[cellID] {
			t.Fatalf("cluster %d has mixed labels", ci)
		}
		clusterLabel[ci] = labels[cellID]
	}
	// Sorted clusters must be ascending in SER.
	order := r.ClustersBySER()
	for i := 1; i < len(order); i++ {
		if r.Clusters[order[i-1]].SER > r.Clusters[order[i]].SER {
			t.Fatal("ClustersBySER not ascending")
		}
	}
}

func TestEngineChoiceLevelSim(t *testing.T) {
	opts := testOptions()
	opts.Engine = sim.KindLevel
	opts.SampleFrac = 0.02
	run := prep(t, 1, opts)
	if err := run.Campaign.Run(run.Result); err != nil {
		t.Fatal(err)
	}
	if run.Result.Engine != string(sim.KindLevel) {
		t.Errorf("engine recorded as %s", run.Result.Engine)
	}
	if len(run.Result.Injections) == 0 {
		t.Fatal("LevelSim campaign performed no injections")
	}
}

func TestModuleLambdaOrdering(t *testing.T) {
	// SoC9 and SoC10 both carry 4MB of memory; SoC10's is rad-hard, which
	// must collapse the exposure by an order of magnitude (Table I shows a
	// 35x SER drop).
	lambda := func(idx int) float64 {
		run := prep(t, idx, testOptions())
		// λ is computed during aggregation; run a minimal campaign.
		if err := run.Campaign.Run(run.Result); err != nil {
			t.Fatal(err)
		}
		return run.Result.Modules["Memory"].Lambda
	}
	sram, rh := lambda(9), lambda(10)
	if rh*10 >= sram {
		t.Errorf("rad-hard memory lambda %g must be >=10x below same-size SRAM %g", rh, sram)
	}
}
