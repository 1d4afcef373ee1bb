package inject

import (
	"bytes"
	"sort"
	"testing"

	"repro/internal/sim"
	"repro/internal/socgen"
	"repro/internal/vcd"
	"repro/internal/xrand"
)

// reassemble merges per-range results back into plan order, the way
// shard.Merge does, so execution order cannot leak into the comparison.
func reassemble(c *Campaign, parts []*Result, order []int) *Result {
	res := &Result{Modules: map[string]*ModuleStats{}}
	byStart := make(map[int]*Result, len(parts))
	starts := make([]int, 0, len(parts))
	for i, p := range parts {
		byStart[order[i]] = p
		starts = append(starts, order[i])
	}
	sort.Ints(starts)
	for _, start := range starts {
		p := byStart[start]
		res.Injections = append(res.Injections, p.Injections...)
		res.WarmStarts += p.WarmStarts
		res.PrunedRuns += p.PrunedRuns
		res.InjectEvals += p.InjectEvals
	}
	c.Aggregate(res)
	return res
}

// TestBatchOrderIndependence is the strike-ordered batching gate: the
// batched whole-plan execution, a per-job execution in shuffled order,
// and a two-half execution in reverse order must all produce bit-identical
// verdicts and identical warm_starts/pruned_runs counters on both engines.
// (DeltaRestores legitimately differs — it counts restore-point sharing,
// which is exactly what execution order changes.)
func TestBatchOrderIndependence(t *testing.T) {
	for _, tc := range []struct {
		engine sim.EngineKind
		frac   float64
	}{
		{sim.KindEvent, 0.05},
		{sim.KindLevel, 0.03},
	} {
		t.Run(string(tc.engine), func(t *testing.T) {
			opts := testOptions()
			opts.Engine = tc.engine
			opts.SampleFrac = tc.frac
			opts.Workers = 4

			ref := prep(t, 1, opts)
			if err := ref.Campaign.Run(ref.Result); err != nil {
				t.Fatal(err)
			}
			if ref.Result.WarmStarts == 0 {
				t.Fatal("reference campaign never warm-started; the order pin would be vacuous")
			}

			// Shuffled per-job execution: every job its own RunJobs call, in
			// a seeded random order.
			shuf := prep(t, 1, opts)
			n := len(shuf.Campaign.DrawJobs())
			order := make([]int, n)
			for i := range order {
				order[i] = i
			}
			rng := xrand.New(99)
			for i := n - 1; i > 0; i-- {
				j := rng.Intn(i + 1)
				order[i], order[j] = order[j], order[i]
			}
			parts := make([]*Result, n)
			for i, idx := range order {
				parts[i] = &Result{Modules: map[string]*ModuleStats{}}
				if err := shuf.Campaign.RunJobs(parts[i], idx, idx+1); err != nil {
					t.Fatal(err)
				}
			}
			got := reassemble(shuf.Campaign, parts, order)
			assertResultsIdentical(t, "shuffled-per-job", ref.Result, got)
			if got.WarmStarts != ref.Result.WarmStarts || got.PrunedRuns != ref.Result.PrunedRuns {
				t.Fatalf("shuffled counters differ: warm %d/%d pruned %d/%d",
					got.WarmStarts, ref.Result.WarmStarts, got.PrunedRuns, ref.Result.PrunedRuns)
			}

			// Reverse two-half execution: later strikes first, each half
			// internally batched.
			half := prep(t, 1, opts)
			hi := &Result{Modules: map[string]*ModuleStats{}}
			lo := &Result{Modules: map[string]*ModuleStats{}}
			if err := half.Campaign.RunJobs(hi, n/2, n); err != nil {
				t.Fatal(err)
			}
			if err := half.Campaign.RunJobs(lo, 0, n/2); err != nil {
				t.Fatal(err)
			}
			got2 := reassemble(half.Campaign, []*Result{hi, lo}, []int{n / 2, 0})
			assertResultsIdentical(t, "reverse-halves", ref.Result, got2)
			if got2.WarmStarts != ref.Result.WarmStarts || got2.PrunedRuns != ref.Result.PrunedRuns {
				t.Fatalf("reverse-half counters differ: warm %d/%d pruned %d/%d",
					got2.WarmStarts, ref.Result.WarmStarts, got2.PrunedRuns, ref.Result.PrunedRuns)
			}
		})
	}
}

// TestQuantilePlacementProperties is the placement property gate, over
// fabricated plans with random strike distributions: the adaptive
// schedule never exceeds the fixed pitch's checkpoint budget, and the
// total restore→strike tail it leaves is never worse than the fixed
// grid's. A clustered distribution must also demonstrate a strict win —
// the reason the policy exists.
func TestQuantilePlacementProperties(t *testing.T) {
	const period = uint64(socgen.ClockPeriodPS)
	const cycles = 36
	mk := func(strikes []uint64) *Campaign {
		c := &Campaign{
			plan: &socgen.StimulusPlan{PeriodPS: period, DurationPS: cycles * period},
		}
		for _, s := range strikes {
			c.jobs = append(c.jobs, Job{TimePS: s})
		}
		c.jobsDrawn = true
		return c
	}
	sortedCopy := func(strikes []uint64) []uint64 {
		out := append([]uint64(nil), strikes...)
		for i := 1; i < len(out); i++ {
			for j := i; j > 0 && out[j] < out[j-1]; j-- {
				out[j], out[j-1] = out[j-1], out[j]
			}
		}
		return out
	}

	rng := xrand.New(7)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(60)
		strikes := make([]uint64, n)
		for i := range strikes {
			// Mixed distributions: uniform, late-clustered, single-cycle.
			switch trial % 3 {
			case 0:
				strikes[i] = 3*period + uint64(rng.Intn(int((cycles-5)*period)))
			case 1:
				strikes[i] = (cycles-8)*period + uint64(rng.Intn(int(6*period)))
			default:
				strikes[i] = 10*period + 100 + uint64(rng.Intn(int(period-200)))
			}
		}
		c := mk(strikes)
		fixed := c.fixedCheckpointCycles()
		got := c.checkpointCycles()
		if len(got) > len(fixed) {
			t.Fatalf("trial %d: %d checkpoints exceed the fixed budget %d", trial, len(got), len(fixed))
		}
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Fatalf("trial %d: schedule not strictly ascending: %v", trial, got)
			}
		}
		ss := sortedCopy(strikes)
		if q, f := restoreTailSum(ss, got, period), restoreTailSum(ss, fixed, period); q > f {
			t.Fatalf("trial %d: quantile tail sum %d worse than fixed %d (schedule %v)", trial, q, f, got)
		}
	}

	// Clustered strikes: all inside one late cycle. The fixed grid's best
	// restore point can be a full pitch away; quantile must snap a
	// checkpoint into the strike cycle itself and strictly win.
	strikes := []uint64{31*period + 100, 31*period + 900, 31*period + 1700}
	c := mk(strikes)
	got := c.checkpointCycles()
	ss := sortedCopy(strikes)
	q, f := restoreTailSum(ss, got, period), restoreTailSum(ss, c.fixedCheckpointCycles(), period)
	if q >= f {
		t.Fatalf("clustered strikes: quantile tail sum %d does not beat fixed %d (schedule %v)", q, f, got)
	}
}

// TestCompareVCDWarmMatchesColdOracle is the warm VCD acceptance gate:
// a CompareVCD campaign with warm starts enabled must warm-start (the old
// code forced it cold) and produce verdicts bit-identical to the
// replay-and-diff-full-traces cold oracle, at a fraction of the work.
func TestCompareVCDWarmMatchesColdOracle(t *testing.T) {
	warmOpts := testOptions()
	warmOpts.CompareVCD = true
	coldOpts := warmOpts
	coldOpts.ColdStart = true

	cold := prep(t, 1, coldOpts)
	if err := cold.Campaign.Run(cold.Result); err != nil {
		t.Fatal(err)
	}
	warm := prep(t, 1, warmOpts)
	if err := warm.Campaign.Run(warm.Result); err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, "vcd-warm-vs-cold", cold.Result, warm.Result)
	if warm.Result.WarmStarts == 0 {
		t.Fatal("CompareVCD campaign never warm-started")
	}
	if cold.Result.WarmStarts != 0 {
		t.Fatalf("cold VCD oracle reported %d warm starts", cold.Result.WarmStarts)
	}
	const evalsFloor = 8.4 // 80% of the 10.54x measured; see TestWarmStartReducesWork
	if w, c := warm.Result.InjectEvals, cold.Result.InjectEvals; w == 0 || float64(c) < evalsFloor*float64(w) {
		t.Errorf("warm VCD path saved too little work: warm %d evals vs cold %d (want >= %.1fx reduction)", w, c, evalsFloor)
	}
}

// TestTailVCDMatchesColdDump pins the resumed-writer path: the faulty
// trace TailVCD assembles — golden dump prefix + tail dumped through the
// checkpoint's resumed writer state — must be byte-for-byte the dump a
// cold replay-from-zero faulty run produces.
func TestTailVCDMatchesColdDump(t *testing.T) {
	opts := testOptions()
	opts.CompareVCD = true
	run := prep(t, 1, opts)
	if err := run.Campaign.Run(run.Result); err != nil {
		t.Fatal(err)
	}
	c := run.Campaign
	checked := 0
	for _, inj := range run.Result.Injections {
		if checked >= 4 {
			break
		}
		if rec, _ := c.checkpointBefore(inj.TimePS); rec == nil {
			continue // pre-first-checkpoint strike: nothing to resume from
		}
		var warm bytes.Buffer
		if err := c.TailVCD(inj, &warm); err != nil {
			t.Fatalf("TailVCD %s: %v", inj.Path, err)
		}
		cold := coldDumpBytes(t, c, inj)
		if !bytes.Equal(warm.Bytes(), cold) {
			t.Fatalf("tail-resumed dump for %s diverges from the cold dump:\n--- warm ---\n%s\n--- cold ---\n%s",
				inj.Path, warm.String(), cold)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no injection struck after the first checkpoint; TailVCD never exercised")
	}
}

// coldDumpBytes replays one injection from t=0 with a fresh VCD writer
// and returns the raw dump.
func coldDumpBytes(t *testing.T, c *Campaign, inj Injection) []byte {
	t.Helper()
	eng, err := sim.New(c.opts.Engine, c.flat)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := vcd.NewWriter(&buf)
	if err := sim.AttachVCD(eng, w, c.plan.Monitors); err != nil {
		t.Fatal(err)
	}
	if err := c.plan.Apply(eng); err != nil {
		t.Fatal(err)
	}
	if _, err := c.applyFault(eng, &inj); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(c.plan.DurationPS); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(c.plan.DurationPS); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
