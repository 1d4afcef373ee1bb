package inject

import (
	"bytes"
	"strings"
	"testing"
)

func TestResultJSONRoundTrip(t *testing.T) {
	run := prep(t, 1, testOptions())
	if err := run.Campaign.Run(run.Result); err != nil {
		t.Fatal(err)
	}
	// New work leaves DeltaRestores at zero; results written before carry
	// a count, so the round trip is pinned on a value set here.
	run.Result.DeltaRestores = 7
	var buf bytes.Buffer
	if err := run.Result.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r := run.Result
	if got.Design != r.Design || got.Engine != r.Engine {
		t.Errorf("identity fields lost: %s/%s", got.Design, got.Engine)
	}
	if got.ChipSER != r.ChipSER {
		t.Errorf("chip SER %v -> %v", r.ChipSER, got.ChipSER)
	}
	if len(got.Injections) != len(r.Injections) {
		t.Fatalf("injections %d -> %d", len(r.Injections), len(got.Injections))
	}
	for i := range got.Injections {
		a, b := r.Injections[i], got.Injections[i]
		if a.CellID != b.CellID || a.Kind != b.Kind || a.SoftError != b.SoftError || a.TimePS != b.TimePS {
			t.Errorf("injection %d differs: %+v vs %+v", i, a, b)
		}
	}
	if len(got.Clusters) != len(r.Clusters) {
		t.Fatalf("clusters %d -> %d", len(r.Clusters), len(got.Clusters))
	}
	for i := range got.Clusters {
		if got.Clusters[i].SER != r.Clusters[i].SER {
			t.Errorf("cluster %d SER differs", i)
		}
	}
	if len(got.Modules) != len(r.Modules) {
		t.Fatalf("modules %d -> %d", len(r.Modules), len(got.Modules))
	}
	for name, m := range r.Modules {
		gm, ok := got.Modules[name]
		if !ok {
			t.Fatalf("module %s lost", name)
		}
		if gm.SERPercent != m.SERPercent || gm.Lambda != m.Lambda {
			t.Errorf("module %s stats differ", name)
		}
	}
	// Labels must be recomputable from the loaded result.
	labels := got.LabelCellsRefined(got.ChipSER)
	origLabels := r.LabelCellsRefined(r.ChipSER)
	if len(labels) != len(origLabels) {
		t.Fatal("label vector length differs after round trip")
	}
	for i := range labels {
		if labels[i] != origLabels[i] {
			t.Fatalf("label %d differs after round trip", i)
		}
	}
	if got.GoldenWall != r.GoldenWall || got.InjectWall != r.InjectWall {
		t.Error("wall-clock fields lost")
	}
	// The warm-start work stats must survive the round trip — and the
	// campaign above must actually have produced some, or this pin is
	// vacuous.
	if r.WarmStarts == 0 || r.PrunedRuns == 0 {
		t.Fatalf("warm campaign reported no warm-start work (warm=%d pruned=%d); the round-trip pin needs a live value",
			r.WarmStarts, r.PrunedRuns)
	}
	if got.WarmStarts != r.WarmStarts {
		t.Errorf("warm_starts %d -> %d", r.WarmStarts, got.WarmStarts)
	}
	if got.PrunedRuns != r.PrunedRuns {
		t.Errorf("pruned_runs %d -> %d", r.PrunedRuns, got.PrunedRuns)
	}
	if got.DeltaRestores != r.DeltaRestores {
		t.Errorf("delta_restores %d -> %d", r.DeltaRestores, got.DeltaRestores)
	}
	if got.RestoreWall != r.RestoreWall {
		t.Errorf("restore_wall_ns %d -> %d", r.RestoreWall, got.RestoreWall)
	}
	if got.GoldenEvals != r.GoldenEvals || got.InjectEvals != r.InjectEvals {
		t.Errorf("eval counters lost: golden %d -> %d, inject %d -> %d",
			r.GoldenEvals, got.GoldenEvals, r.InjectEvals, got.InjectEvals)
	}
	if got.Options.CheckpointEveryCycles != r.Options.CheckpointEveryCycles || got.Options.ColdStart != r.Options.ColdStart {
		t.Error("checkpoint options lost")
	}
}

// TestColdResultJSONRoundTrip pins the zero-valued warm-start fields of a
// cold campaign: `omitempty` must read back as zeros, not garbage.
func TestColdResultJSONRoundTrip(t *testing.T) {
	opts := testOptions()
	opts.ColdStart = true
	run := prep(t, 1, opts)
	if err := run.Campaign.Run(run.Result); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run.Result.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.WarmStarts != 0 || got.PrunedRuns != 0 {
		t.Errorf("cold campaign round-tripped warm stats %d/%d, want 0/0", got.WarmStarts, got.PrunedRuns)
	}
	if !got.Options.ColdStart {
		t.Error("cold_start flag lost")
	}
}

func TestReadJSONErrors(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{")); err == nil {
		t.Error("truncated JSON must fail")
	}
	if _, err := ReadJSON(strings.NewReader(`{"schema_version": 99}`)); err == nil {
		t.Error("unknown schema version must fail")
	}
}
