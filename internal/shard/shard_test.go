package shard

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/inject"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// testSpec is the small SoC1 campaign all shard tests run; sampleFrac is
// kept low so the full matrix stays fast.
func testSpec(engine string, sampleFrac float64) CampaignSpec {
	o := inject.DefaultOptions()
	cs := SpecFromOptions(1, "memcpy", o)
	cs.Engine = sim.EngineKind(engine)
	cs.SampleFrac = sampleFrac
	cs.MinPerCluster = 2
	cs.Seed = 7
	return cs
}

func mustBuild(t *testing.T, cs CampaignSpec) *Built {
	t.Helper()
	b, err := BuildLocal(cs, nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// fpOf computes a campaign fingerprint, failing the test on error — the
// specs tests build are always fingerprintable.
func fpOf(t *testing.T, cs CampaignSpec) string {
	t.Helper()
	fp, err := cs.Fingerprint()
	if err != nil {
		t.Fatalf("fingerprint: %v", err)
	}
	return fp
}

// singleProcess runs the reference un-sharded campaign.
func singleProcess(t *testing.T, cs CampaignSpec) *inject.Result {
	t.Helper()
	b := mustBuild(t, cs)
	if err := b.Run.Campaign.Run(b.Run.Result); err != nil {
		t.Fatal(err)
	}
	return b.Run.Result
}

// TestShardedCampaignDeterminism is the sharding determinism gate, the
// distribution-axis sibling of inject.TestWarmColdWorkerDeterminism: for
// any shard count and any (shuffled) execution and arrival order, the
// merged result must be bit-identical to the single-process campaign, on
// both engines.
func TestShardedCampaignDeterminism(t *testing.T) {
	cases := []struct {
		engine string
		frac   float64
	}{
		{"EventSim", 0.05},
		{"LevelSim", 0.02},
	}
	for _, tc := range cases {
		t.Run(tc.engine, func(t *testing.T) {
			cs := testSpec(tc.engine, tc.frac)
			ref := singleProcess(t, cs)
			rng := xrand.New(99)
			for _, numShards := range []int{1, 2, 5} {
				b := mustBuild(t, cs)
				specs, err := Plan(cs, numShards, len(b.Jobs))
				if err != nil {
					t.Fatal(err)
				}
				// Execute in shuffled order — shards are independent work
				// units, and a coordinator hands them out in whatever order
				// workers show up.
				order := rng.Sample(len(specs), len(specs))
				partials := make([]*Partial, 0, len(specs))
				for _, i := range order {
					p, err := ExecuteOn(b, specs[i])
					if err != nil {
						t.Fatal(err)
					}
					partials = append(partials, p)
				}
				got, err := Merge(b, partials)
				if err != nil {
					t.Fatal(err)
				}
				if err := EquivalentResults(ref, got); err != nil {
					t.Fatalf("%d shards: merged result diverges from single-process: %v", numShards, err)
				}
			}
		})
	}
}

// TestExecutorReusesBuiltCampaign pins the per-worker-process economy:
// all shards of one campaign run on one build (one golden run), and the
// executor still produces partials that merge bit-identically.
func TestExecutorReusesBuiltCampaign(t *testing.T) {
	cs := testSpec("EventSim", 0.05)
	ref := singleProcess(t, cs)
	b := mustBuild(t, cs)
	specs, err := Plan(cs, 3, len(b.Jobs))
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor()
	ex.Adopt(b)
	var partials []*Partial
	for _, sp := range specs {
		p, err := ex.ExecuteFor(sp, "")
		if err != nil {
			t.Fatal(err)
		}
		partials = append(partials, p)
	}
	if len(ex.built) != 1 {
		t.Fatalf("executor built %d campaigns, want the adopted 1", len(ex.built))
	}
	got, err := Merge(b, partials)
	if err != nil {
		t.Fatal(err)
	}
	if err := EquivalentResults(ref, got); err != nil {
		t.Fatalf("executor-run shards diverge: %v", err)
	}
}

// TestExecutorEvictsStaleCampaigns pins the cache bound: an executor
// draining a long sweep keeps at most maxCachedCampaigns campaigns'
// builds and partials, evicting least-recently-used first.
func TestExecutorEvictsStaleCampaigns(t *testing.T) {
	ex := NewExecutor()
	var specs []CampaignSpec
	for i := 0; i < maxCachedCampaigns+2; i++ {
		cs := testSpec("EventSim", 0.05)
		cs.Seed = uint64(100 + i)
		specs = append(specs, cs)
		// Fake builds: the eviction policy never looks inside them.
		ex.Adopt(&Built{Spec: cs, Fingerprint: fpOf(t, cs)})
	}
	if len(ex.built) != maxCachedCampaigns {
		t.Fatalf("executor caches %d campaigns, want at most %d", len(ex.built), maxCachedCampaigns)
	}
	// The oldest two are gone, the newest still cached.
	if _, ok := ex.built[fpOf(t, specs[0])]; ok {
		t.Fatal("least-recently-used campaign not evicted")
	}
	if _, ok := ex.built[fpOf(t, specs[len(specs)-1])]; !ok {
		t.Fatal("most-recent campaign evicted")
	}
	// Re-adopting an evicted campaign makes it most-recent again.
	ex.Adopt(&Built{Spec: specs[0], Fingerprint: fpOf(t, specs[0])})
	if _, ok := ex.built[fpOf(t, specs[0])]; !ok {
		t.Fatal("re-adopted campaign not cached")
	}
}

// TestPlanAtMostClampsToTinyCampaigns pins the sweep-planning behaviour:
// a campaign smaller than the requested shard count degrades to one
// shard per injection instead of failing.
func TestPlanAtMostClampsToTinyCampaigns(t *testing.T) {
	cs := testSpec("EventSim", 0.05)
	specs, err := PlanAtMost(cs, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 {
		t.Fatalf("clamped plan has %d shards, want 3", len(specs))
	}
	if specs[2].End != 3 {
		t.Fatalf("clamped plan covers %d jobs, want 3", specs[2].End)
	}
	specs, err = PlanAtMost(cs, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("unclamped plan has %d shards, want 2", len(specs))
	}
}

func TestPlanValidation(t *testing.T) {
	cs := testSpec("EventSim", 0.05)
	if _, err := Plan(cs, 0, 10); err == nil {
		t.Error("shard count 0 accepted")
	}
	if _, err := Plan(cs, 11, 10); err == nil {
		t.Error("shard count exceeding injections accepted")
	}
	specs, err := Plan(cs, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for i, sp := range specs {
		if sp.Start != next || sp.End <= sp.Start {
			t.Fatalf("shard %d covers [%d,%d), want contiguous from %d", i, sp.Start, sp.End, next)
		}
		if size := sp.End - sp.Start; size != 3 && size != 4 {
			t.Fatalf("shard %d size %d not balanced", i, size)
		}
		next = sp.End
	}
	if next != 10 {
		t.Fatalf("shards cover %d of 10 jobs", next)
	}
}

func TestFingerprintSeparatesCampaigns(t *testing.T) {
	a := testSpec("EventSim", 0.05)
	b := a
	if fpOf(t, a) != fpOf(t, b) {
		t.Fatal("equal specs produced different fingerprints")
	}
	b.Seed++
	if fpOf(t, a) == fpOf(t, b) {
		t.Fatal("different seeds share a fingerprint")
	}
	c := a
	c.Engine = "LevelSim"
	if fpOf(t, a) == fpOf(t, c) {
		t.Fatal("different engines share a fingerprint")
	}
}

func TestSpecValidation(t *testing.T) {
	ok := testSpec("EventSim", 0.05)
	bad := []func(*CampaignSpec){
		func(cs *CampaignSpec) { cs.SoC = 0 },
		func(cs *CampaignSpec) { cs.SoC = 11 },
		func(cs *CampaignSpec) { cs.Workload = "quicksort3" },
		func(cs *CampaignSpec) { cs.Engine = "Verilator" },
		func(cs *CampaignSpec) { cs.SampleFrac = 0 },
		func(cs *CampaignSpec) { cs.SampleFrac = 1.5 },
		func(cs *CampaignSpec) { cs.KN = 0 },
		func(cs *CampaignSpec) { cs.Flux = -1 },
	}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	for i, mutate := range bad {
		cs := ok
		mutate(&cs)
		if err := cs.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestMergeRejectsBadCoverage(t *testing.T) {
	cs := testSpec("EventSim", 0.05)
	b := mustBuild(t, cs)
	specs, err := Plan(cs, 3, len(b.Jobs))
	if err != nil {
		t.Fatal(err)
	}
	var partials []*Partial
	for _, sp := range specs {
		p, err := ExecuteOn(b, sp)
		if err != nil {
			t.Fatal(err)
		}
		partials = append(partials, p)
	}
	if _, err := Merge(b, partials[:2]); err == nil {
		t.Error("merge accepted a missing shard")
	}
	if _, err := Merge(b, []*Partial{partials[0], partials[0], partials[1], partials[2]}); err != nil {
		t.Errorf("merge rejected an exact duplicate partial: %v", err)
	}
	mangled := *partials[1]
	mangled.Injections = mangled.Injections[:len(mangled.Injections)-1]
	if _, err := Merge(b, []*Partial{partials[0], &mangled, partials[2]}); err == nil {
		t.Error("merge accepted a short partial")
	}
}

// TestGoldenArtifactIndependentOfPlan pins what the lake's golden key rests
// on. Specs that differ only in Seed, LET, KN, Flux or SampleFrac — on
// either engine, with or without the VCD detector — must encode the same
// golden artifact bytes, share a GoldenFingerprint, and run identically
// (injections and work counters) whether a campaign simulates its golden
// run or adopts the base spec's artifact. The golden fingerprint must
// still separate specs whose golden runs differ.
func TestGoldenArtifactIndependentOfPlan(t *testing.T) {
	gfpOf := func(cs CampaignSpec) string {
		t.Helper()
		gfp, err := cs.GoldenFingerprint()
		if err != nil {
			t.Fatal(err)
		}
		return gfp
	}
	encode := func(b *Built) []byte {
		t.Helper()
		blob, err := EncodeBuilt(b)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	runAll := func(b *Built) *Partial {
		t.Helper()
		p, err := ExecuteOn(b, Spec{Start: 0, End: len(b.Jobs)})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, engine := range []string{"EventSim", "LevelSim"} {
		for _, compareVCD := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/CompareVCD=%t", engine, compareVCD), func(t *testing.T) {
				base := testSpec(engine, 0.02)
				base.CompareVCD = compareVCD
				artifact := encode(mustBuild(t, base))
				for name, mutate := range map[string]func(*CampaignSpec){
					"Seed":       func(cs *CampaignSpec) { cs.Seed++ },
					"LET":        func(cs *CampaignSpec) { cs.LET = 100 },
					"KN":         func(cs *CampaignSpec) { cs.KN++ },
					"Flux":       func(cs *CampaignSpec) { cs.Flux *= 10 },
					"SampleFrac": func(cs *CampaignSpec) { cs.SampleFrac = 0.03 },
				} {
					sib := base
					mutate(&sib)
					if gfpOf(sib) != gfpOf(base) {
						t.Fatalf("%s: golden fingerprint moved with a parameter the golden run never reads", name)
					}
					local := mustBuild(t, sib)
					if !bytes.Equal(encode(local), artifact) {
						t.Fatalf("%s: golden artifact bytes differ from the base spec's", name)
					}
					adopted, err := BuildFromGolden(sib, nil, artifact)
					if err != nil {
						t.Fatalf("%s: base spec's artifact refused: %v", name, err)
					}
					want, got := runAll(local), runAll(adopted)
					if want.WarmStarts == 0 {
						t.Fatalf("%s: campaign never warm-started; the adopted checkpoints went unused", name)
					}
					if !slices.Equal(got.Injections, want.Injections) {
						t.Fatalf("%s: injections differ between the adopted and the local golden run", name)
					}
					if got.InjectEvals != want.InjectEvals || got.WarmStarts != want.WarmStarts || got.PrunedRuns != want.PrunedRuns {
						t.Fatalf("%s: adopted work %d evals/%d warm/%d pruned, local %d/%d/%d", name,
							got.InjectEvals, got.WarmStarts, got.PrunedRuns, want.InjectEvals, want.WarmStarts, want.PrunedRuns)
					}
				}
			})
		}
	}

	base := testSpec("EventSim", 0.02)
	for name, mutate := range map[string]func(*CampaignSpec){
		"SoC":        func(cs *CampaignSpec) { cs.SoC = 2 },
		"Workload":   func(cs *CampaignSpec) { cs.Workload = "crc" },
		"Engine":     func(cs *CampaignSpec) { cs.Engine = sim.KindLevel },
		"ColdStart":  func(cs *CampaignSpec) { cs.ColdStart = true },
		"CompareVCD": func(cs *CampaignSpec) { cs.CompareVCD = true },
	} {
		other := base
		mutate(&other)
		if gfpOf(other) == gfpOf(base) {
			t.Errorf("%s: specs whose golden runs differ share a golden fingerprint", name)
		}
	}
}
