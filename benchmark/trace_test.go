package main

import (
	"testing"
	"time"

	"repro/internal/obs"
)

func at(ms int) time.Time { return time.Unix(1000, 0).Add(time.Duration(ms) * time.Millisecond) }

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "rep", Parent: -1, Start: at(0), End: at(100)},
		{Name: "l.a", Parent: 0, Start: at(10), End: at(40)},
		{Name: "l.b", Parent: 0, Start: at(30), End: at(60)},     // overlaps a: union 10..60
		{Name: "l.c", Parent: 0, Start: at(70), End: at(80)},     // disjoint
		{Name: "l.late", Parent: 0, Start: at(95), End: at(120)}, // clipped to the parent: 95..100
		{Name: "l.a1", Parent: 1, Start: at(15), End: at(25)},
		{Name: "l.worker", Track: 1, Parent: 0, Start: at(0), End: at(100)}, // other track: subtracts nothing
	}
	self := selfTimes(spans)
	want := []time.Duration{
		35 * time.Millisecond, // 100 − (50 + 10 + 5)
		20 * time.Millisecond, // 30 − 10
		30 * time.Millisecond,
		10 * time.Millisecond,
		25 * time.Millisecond,
		10 * time.Millisecond,
		100 * time.Millisecond,
	}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, self[i], want[i])
		}
	}
	// Client-track layer spans: 20+30+10+25+10 = 95 of a 100 ms root.
	if got := coverage(spans); got < 0.949 || got > 0.951 {
		t.Errorf("coverage = %g, want 0.95", got)
	}
}

// A grouping span tiles its parent whatever happens inside it, so only
// what its layer spans cover may count: time nobody put a name on must
// lower the coverage.
func TestCoverageSeesUninstrumentedGap(t *testing.T) {
	spans := []span{
		{Name: "rep", Parent: -1, Start: at(0), End: at(100)},
		{Name: "setup", Parent: 0, Start: at(0), End: at(20)},
		{Name: "inject.golden", Parent: 1, Start: at(0), End: at(20)},
		{Name: "campaign", Parent: 0, Start: at(20), End: at(100)},
		{Name: "inject.run_jobs", Parent: 3, Start: at(20), End: at(60)}, // 60..100 has no layer span
	}
	if got := coverage(spans); got < 0.599 || got > 0.601 {
		t.Errorf("coverage = %g, want 0.60: the groups' own self time must not count", got)
	}
	spans = append(spans, span{Name: "inject.aggregate", Parent: 3, Start: at(60), End: at(100)})
	if got := coverage(spans); got < 0.999 {
		t.Errorf("coverage = %g with every interval named, want 1", got)
	}
}

func TestTracerRecordsAndNilTracerDoesNot(t *testing.T) {
	tr := &tracer{}
	root := tr.root("rep", 3)
	child := root.child("layer.op")
	if d := child.end(); d < 0 {
		t.Errorf("negative duration %v", d)
	}
	root.on(2, "worker.op").end()
	root.record(2, "worker.idle", at(0), at(5))
	root.end()
	spans := tr.snapshot()
	if len(spans) != 4 {
		t.Fatalf("recorded %d spans, want 4", len(spans))
	}
	for _, s := range spans[1:] {
		if s.Parent != 0 || s.Rep != 3 {
			t.Errorf("span %s: parent %d rep %d, want parent 0 rep 3", s.Name, s.Parent, s.Rep)
		}
	}
	if spans[2].Track != 2 || spans[1].Track != 0 {
		t.Errorf("tracks: %d %d", spans[1].Track, spans[2].Track)
	}

	var off *tracer
	sc := off.root("rep", 0)
	sc.child("x").end()
	sc.record(1, "y", at(0), at(1))
	if d := sc.end(); d < 0 || len(off.snapshot()) != 0 {
		t.Errorf("nil tracer recorded spans or returned %v", d)
	}
}

func TestChromeTraceValidates(t *testing.T) {
	spans := []span{
		{Name: "rep", Parent: -1, Rep: 1, Start: at(0), End: at(10)},
		{Name: "inject.run_jobs", Parent: 0, Rep: 1, Start: at(1), End: at(9)},
		{Name: "instant", Parent: 0, Rep: 1, Start: at(5), End: at(5)}, // zero length still renders
	}
	b, err := chromeTrace(spans)
	if err != nil {
		t.Fatal(err)
	}
	events, err := obs.ValidateTrace(b)
	if err != nil {
		t.Fatalf("own trace rejected: %v", err)
	}
	if len(events) != 3 || events[1].TS != 1000 || events[1].Dur != 8000 || events[2].Dur != 1 {
		t.Errorf("events: %+v", events)
	}
	if events[1].Args["parent"] != "rep" {
		t.Errorf("child lost its parent: %+v", events[1].Args)
	}
}

func TestLayerValues(t *testing.T) {
	want := []metricSpec{
		{Name: "inject.run_jobs_ms"}, {Name: "capi.lease_ms_p50"}, {Name: "capi.lease_ms_hi"},
		{Name: "svm.cv_ms"}, {Name: "inject.injections"},
	}
	var spans []span
	for rep := 1; rep <= 3; rep += 2 { // traced reps 1 and 3
		spans = append(spans,
			span{Name: "inject.run_jobs", Rep: rep, Start: at(0), End: at(10 * rep)},
			span{Name: "inject.run_jobs", Rep: rep, Start: at(50), End: at(55)})
	}
	for i := 0; i < 30; i++ {
		spans = append(spans, span{Name: "capi.lease", Rep: 1, Track: 1, Start: at(0), End: at(i + 1)})
	}
	samples := []sample{
		{rep: 1, traced: true, layer: map[string]float64{"inject.injections": 100}},
		{rep: 3, traced: true, layer: map[string]float64{"inject.injections": 200}},
	}
	got := layerValues(want, spans, samples, map[int]bool{1: true, 3: true})
	if !near(got["inject.run_jobs_ms"], 25) { // per rep 15 and 35
		t.Errorf("run_jobs_ms = %g", got["inject.run_jobs_ms"])
	}
	if !near(got["capi.lease_ms_p50"], 15.5) || !near(got["capi.lease_ms_hi"], 20) {
		t.Errorf("lease p50 %g hi %g", got["capi.lease_ms_p50"], got["capi.lease_ms_hi"])
	}
	if !near(got["inject.injections"], 150) {
		t.Errorf("injections = %g", got["inject.injections"])
	}
	if _, ok := got["svm.cv_ms"]; ok {
		t.Error("a layer the workload never entered must be left out (reported as 0 by the caller)")
	}
}
