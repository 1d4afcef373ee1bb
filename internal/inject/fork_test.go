package inject

import (
	"testing"
)

// TestForkAgreesWithRestore pins the golden-cursor fork against restore +
// replay on two EventSim campaigns: SoC3/dot under sameInstantOptions,
// whose plan holds the same-instant reproducer (job sameInstantJob), and
// SoC5. The whole plan runs through RunJobs, where every checkpoint start
// forks from its worker's cursor; then every job runs alone through
// worker.inject on a worker without a cursor, so each checkpoint start is
// worker.run(&inj, ckIdx, &sigDetector{}) after a restore. Verdicts,
// WarmStarts and PrunedRuns must be equal, and the fork must spend fewer
// evals. A second RunJobs, and the plan run as two halves, must reach the
// same InjectEvals: a fork is charged a stretch of the golden run fixed
// by the plan, whichever of the four workers met it and whatever the
// cursor simulated before.
func TestForkAgreesWithRestore(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func() *SoCRun
	}{
		{"SoC3/dot", func() *SoCRun {
			opts := sameInstantOptions()
			opts.Workers = 4
			return prepDot(t, opts)
		}},
		{"SoC5/memcpy", func() *SoCRun {
			opts := testOptions()
			opts.Workers = 4
			return prep(t, 5, opts)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := tc.run()
			c := run.Campaign
			jobs := c.DrawJobs()
			if tc.name == "SoC3/dot" && len(jobs) <= sameInstantJob {
				t.Fatalf("plan of %d jobs lacks the same-instant reproducer", len(jobs))
			}
			forked := make([]*Result, 3)
			for i := range forked {
				forked[i] = &Result{}
				bounds := [][2]int{{0, len(jobs)}}
				if i == 2 {
					bounds = [][2]int{{len(jobs) / 2, len(jobs)}, {0, len(jobs) / 2}}
				}
				for _, b := range bounds {
					if err := c.RunJobs(forked[i], b[0], b[1]); err != nil {
						t.Fatal(err)
					}
				}
			}
			replayed := &worker{c: c}
			for i, j := range jobs {
				_, ckIdx := c.checkpointBefore(j.TimePS)
				inj, err := replayed.inject(j, ckIdx)
				if err != nil {
					t.Fatal(err)
				}
				if got := forked[0].Injections[i]; got != inj {
					t.Errorf("job %d: forked %+v, restored and replayed %+v", i, got, inj)
				}
			}
			f := forked[0].Work
			if f.WarmStarts != replayed.WarmStarts || f.PrunedRuns != replayed.PrunedRuns {
				t.Errorf("forked %d warm starts, %d pruned; restored and replayed %d, %d",
					f.WarmStarts, f.PrunedRuns, replayed.WarmStarts, replayed.PrunedRuns)
			}
			if f.InjectEvals >= replayed.InjectEvals {
				t.Errorf("forked runs spent %d evals, restored and replayed ones %d", f.InjectEvals, replayed.InjectEvals)
			}
			if a, b, h := forked[0].InjectEvals, forked[1].InjectEvals, forked[2].InjectEvals; a != b || a != h {
				t.Errorf("two 4-worker runs of one plan charged %d and %d evals, its two halves %d", a, b, h)
			}
			t.Logf("%d jobs, %d warm starts: %d evals forked, %d restored and replayed", len(jobs), f.WarmStarts, f.InjectEvals, replayed.InjectEvals)
		})
	}
}
