package main

import (
	"strings"
	"testing"
)

// The committed contract must load, and every workload it lists must
// exist in the harness.
func TestCommittedSpec(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != 6 {
		t.Errorf("%d workloads, want 6", len(spec.Workloads))
	}
	for _, w := range spec.Workloads {
		if newWorkload(w.Name) == nil {
			t.Errorf("workload %s is in BENCHMARK.json but not in the harness", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", spec.Paths)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, contract allows 1..128", n)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
}

func TestSpecValidation(t *testing.T) {
	ok := func() *benchSpec { return testSpec() }
	if err := ok().validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	for name, breakIt := range map[string]func(*benchSpec){
		"duplicate name":       func(s *benchSpec) { s.PerLayer[0].Name = "wall_s" },
		"bad name":             func(s *benchSpec) { s.EndToEnd[1].Name = "wall s" },
		"bad unit":             func(s *benchSpec) { s.EndToEnd[1].Unit = "seconds per run!" },
		"bad direction":        func(s *benchSpec) { s.EndToEnd[1].Better = "faster" },
		"bound too wide":       func(s *benchSpec) { s.EndToEnd[1].Bound = bound(0.5) },
		"no bound":             func(s *benchSpec) { s.EndToEnd[1].Bound = nil },
		"per-layer with bound": func(s *benchSpec) { s.PerLayer[0].Bound = bound(0.1) },
		"no setup_s":           func(s *benchSpec) { s.EndToEnd = s.EndToEnd[1:] },
		"one workload":         func(s *benchSpec) { s.Workloads = s.Workloads[:1] },
	} {
		s := ok()
		breakIt(s)
		if err := s.validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestFillRequiresExactlyTheListedMetrics(t *testing.T) {
	spec := testSpec()
	got, err := spec.fill(false, map[string]float64{"setup_s": 0.07, "wall_s": 1.3})
	if err != nil || got["wall_s"] != (metricValue{1.3, "s"}) || len(got) != 2 {
		t.Fatalf("fill = %v, %v", got, err)
	}
	if _, err := spec.fill(false, map[string]float64{"setup_s": 0.07}); err == nil {
		t.Error("a missing end-to-end metric was accepted")
	}
	if _, err := spec.fill(false, map[string]float64{"setup_s": 0.07, "wall_s": 1.3, "sim.event.ns_per_eval": 100}); err == nil {
		t.Error("a per-layer metric in the end-to-end result was accepted")
	}
	if _, err := spec.fill(true, map[string]float64{"sim.event.ns_per_eval": 100}); err != nil {
		t.Errorf("per-layer fill: %v", err)
	}
}
