package inject

import (
	"testing"

	"repro/internal/obs"
)

// TestMetricsMirrorWork pins the registry view of Work: a campaign run
// with Options.Metrics leaves every inject_*_total series equal to its
// Result's Work, and recording that Work as a sweep's cost gives the same
// values under sweep_cost_*_total{sweep}. These are the names federated
// scrapes and dashboards key on.
func TestMetricsMirrorWork(t *testing.T) {
	reg := obs.NewRegistry()
	opts := testOptions()
	opts.Metrics = NewMetrics(reg)
	run := prep(t, 1, opts)
	if err := run.Campaign.Run(run.Result); err != nil {
		t.Fatal(err)
	}
	w := run.Result.Work
	if w.InjectEvals == 0 || w.WarmStarts == 0 || w.RestoreWall == 0 {
		t.Fatalf("campaign did no warm work: %+v", w)
	}
	NewCostMetrics(reg, "c0ffee").Record(w)
	sc, err := obs.ParseText(reg.Expose())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{
		"evals":           w.InjectEvals,
		"warm_starts":     w.WarmStarts,
		"pruned_runs":     w.PrunedRuns,
		"delta_restores":  w.DeltaRestores,
		"restore_wall_ns": uint64(w.RestoreWall),
	}
	for suffix, v := range want {
		if got, ok := sc.Value("inject_" + suffix + "_total"); !ok || got != float64(v) {
			t.Errorf("inject_%s_total = %v, %v; want %d", suffix, got, ok, v)
		}
		if got, ok := sc.Value("sweep_cost_"+suffix+"_total", "sweep", "c0ffee"); !ok || got != float64(v) {
			t.Errorf("sweep_cost_%s_total = %v, %v; want %d", suffix, got, ok, v)
		}
	}
}
