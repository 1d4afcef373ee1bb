package inject

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/riscv"
	"repro/internal/sim"
	"repro/internal/socgen"
)

// laneCampaigns are warm LevelSim campaigns with SEUs spread over many
// checkpoints: SoC1 on memcpy, and SoC5 on crc as the campaign_level
// benchmark runs it.
func laneCampaigns(t *testing.T) map[string]*Campaign {
	t.Helper()
	out := map[string]*Campaign{}
	for name, d := range map[string]struct {
		soc  int
		prog riscv.Program
		frac float64
	}{
		"SoC1/memcpy": {1, riscv.MemcpyProgram(8), 0.6},
		"SoC5/crc":    {5, riscv.CRCProgram(12), 0.2},
	} {
		cfg, err := socgen.ConfigByIndex(d.soc)
		if err != nil {
			t.Fatal(err)
		}
		opts := testOptions()
		opts.Engine, opts.SampleFrac, opts.KN, opts.Workers = sim.KindLevel, d.frac, cfg.KN, 4
		run, err := PrepareSoC(cfg, d.prog, fault.DefaultDB(), opts)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = run.Campaign
	}
	return out
}

// scalarRef is one job run on its own checkpoint start.
type scalarRef struct {
	soft bool
	work Work
}

// scalarStart runs job j on its own checkpoint start (cold before the
// first checkpoint) on a fresh worker.
func scalarStart(t *testing.T, c *Campaign, j Job) scalarRef {
	t.Helper()
	_, ck := c.checkpointBefore(j.TimePS)
	w := &worker{c: c}
	inj, err := w.inject(j, ck)
	if err != nil {
		t.Fatal(err)
	}
	return scalarRef{inj.SoftError, w.Work}
}

// seuGroup gathers the plan's checkpoint-start SEUs, strike-sorted, as
// one lane batch.
func seuGroup(c *Campaign) jobBatch {
	var all jobBatch
	for _, b := range c.buildBatches(c.DrawJobs(), 1) {
		all.idxs = append(all.idxs, b.idxs...)
		all.laneCks = append(all.laneCks, b.laneCks...)
		if b.laneCks == nil {
			break // lane groups come first
		}
	}
	all.idxs = all.idxs[:len(all.laneCks)]
	return all
}

// sameCounters requires the counters a lane start must reproduce to be
// equal.
func sameCounters(t *testing.T, label string, got, want Work) {
	t.Helper()
	if got.InjectEvals != want.InjectEvals || got.WarmStarts != want.WarmStarts || got.PrunedRuns != want.PrunedRuns {
		t.Fatalf("%s: evals/warm/pruned %d/%d/%d, scalar %d/%d/%d", label,
			got.InjectEvals, got.WarmStarts, got.PrunedRuns, want.InjectEvals, want.WarmStarts, want.PrunedRuns)
	}
}

// TestLaneStartMatchesScalar pins the lane start to the scalar checkpoint
// start on LevelSim: for lane groups of 1, 2 and 63 SEUs, every verdict
// and the group's WarmStarts, PrunedRuns and InjectEvals equal the sums of
// its SEUs' scalar runs (group size 1 pins each SEU alone). A group whose
// start checkpoint queues an X input runs scalar and matches too, and a
// whole campaign over four workers equals the job-by-job scalar run.
func TestLaneStartMatchesScalar(t *testing.T) {
	for name, c := range laneCampaigns(t) {
		t.Run(name, func(t *testing.T) {
			jobs := c.DrawJobs()
			seus := seuGroup(c)
			cks := map[int]bool{}
			for _, ck := range seus.laneCks {
				cks[ck] = true
			}
			if len(seus.idxs) <= 63 || len(cks) < 4 {
				t.Fatalf("%d SEUs over %d checkpoints: too few to fill a 63-lane group across checkpoints", len(seus.idxs), len(cks))
			}
			ref := make([]scalarRef, len(seus.idxs))
			for i, idx := range seus.idxs {
				ref[i] = scalarStart(t, c, jobs[idx])
			}
			for _, size := range []int{1, 2, 63} {
				for lo := 0; lo < len(seus.idxs); lo += size {
					hi := min(lo+size, len(seus.idxs))
					injs := make([]Injection, hi-lo)
					var want Work
					for i := range injs {
						var err error
						if injs[i], err = c.injection(jobs[seus.idxs[lo+i]]); err != nil {
							t.Fatal(err)
						}
						want.Add(ref[lo+i].work)
					}
					w := &worker{c: c}
					soft, ok := w.runLanes(injs, seus.laneCks[lo], seus.laneCks[lo:hi])
					if !ok {
						t.Fatalf("size %d group at %d: the lanes refused a two-valued start", size, lo)
					}
					if w.WordEvals == 0 {
						t.Fatalf("size %d group at %d: no word evals counted", size, lo)
					}
					for i := range injs {
						if got := soft>>(i+1)&1 != 0; got != ref[lo+i].soft {
							t.Fatalf("size %d: %s at %dps: lane soft error %v, scalar %v", size, injs[i].Path, injs[i].TimePS, got, ref[lo+i].soft)
						}
					}
					sameCounters(t, "lane group", w.Work, want)
				}
			}

			// A start checkpoint queueing an X input: the group runs scalar.
			g := jobBatch{ckIdx: seus.laneCks[0], idxs: seus.idxs[:2], laneCks: seus.laneCks[:2]}
			golden := c.ckpts[g.ckIdx].ck
			eng, err := sim.New(sim.KindLevel, c.flat)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Restore(golden); err != nil {
				t.Fatal(err)
			}
			data := c.flat.PIs[0]
			if data == c.plan.ClockNet {
				data = c.flat.PIs[1]
			}
			if err := eng.ScheduleInput(golden.TimePS+1, data, logic.X); err != nil {
				t.Fatal(err)
			}
			c.ckpts[g.ckIdx].ck = eng.Snapshot()
			defer func() { c.ckpts[g.ckIdx].ck = golden }()
			injs := make([]Injection, len(g.idxs))
			for i, idx := range g.idxs {
				if injs[i], err = c.injection(jobs[idx]); err != nil {
					t.Fatal(err)
				}
			}
			if _, ok := (&worker{c: c}).runLanes(injs, g.ckIdx, g.laneCks); ok {
				t.Fatal("the lanes ran a start that queues an X input")
			}
			out, errs := make([]Injection, len(jobs)), make([]error, len(jobs))
			w := &worker{c: c}
			w.injectLanes(jobs, g, out, errs)
			var want Work
			for _, idx := range g.idxs {
				if errs[idx] != nil {
					t.Fatal(errs[idx])
				}
				r := scalarStart(t, c, jobs[idx])
				if out[idx].SoftError != r.soft {
					t.Fatalf("X start: %s verdict %v, scalar %v", out[idx].Path, out[idx].SoftError, r.soft)
				}
				want.Add(r.work)
			}
			sameCounters(t, "X start", w.Work, want)
			c.ckpts[g.ckIdx].ck = golden

			// The whole campaign through RunJobs' workers against every job
			// run alone.
			res := &Result{Modules: map[string]*ModuleStats{}}
			if err := c.RunJobs(res, 0, len(jobs)); err != nil {
				t.Fatal(err)
			}
			var want2 Work
			for i, j := range jobs {
				r := scalarStart(t, c, j)
				if res.Injections[i].SoftError != r.soft {
					t.Fatalf("campaign: job %d (%s) verdict %v, scalar %v", i, res.Injections[i].Path, res.Injections[i].SoftError, r.soft)
				}
				want2.Add(r.work)
			}
			sameCounters(t, "campaign", res.Work, want2)
			t.Logf("%d SEUs of %d jobs: %d word evals for %d scalar-equivalent evals", len(seus.idxs), len(jobs), res.WordEvals, res.InjectEvals)
		})
	}
}
