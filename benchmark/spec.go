package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
)

// benchSpec is BENCHMARK.json: the contract the driver reads and the one
// place metric names, units, directions and bounds are declared. The
// harness reads it at start-up, reports exactly the metrics it lists, and
// refuses to print a result that is missing one or carries an extra one.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the baseline median by which the metric may
	// worsen before it counts as a regression; end-to-end metrics only.
	Bound *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &s, nil
}

func (s *benchSpec) validate() error {
	seen := map[string]bool{}
	use := func(name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("invalid name %q", name)
		}
		if seen[name] {
			return fmt.Errorf("name %q used twice", name)
		}
		seen[name] = true
		return nil
	}
	if len(s.Workloads) < 2 {
		return fmt.Errorf("needs at least two workloads")
	}
	for _, w := range s.Workloads {
		if err := use(w.Name); err != nil {
			return err
		}
	}
	setup := false
	for _, group := range [][]metricSpec{s.EndToEnd, s.PerLayer} {
		for _, m := range group {
			if err := use(m.Name); err != nil {
				return err
			}
			if !unitRE.MatchString(m.Unit) {
				return fmt.Errorf("metric %s: invalid unit %q", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				return fmt.Errorf("metric %s: better must be lower or higher, got %q", m.Name, m.Better)
			}
		}
	}
	for _, m := range s.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			return fmt.Errorf("end-to-end metric %s needs a bound in (0, 0.25]", m.Name)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			setup = true
		}
	}
	for _, m := range s.PerLayer {
		if m.Bound != nil {
			return fmt.Errorf("per-layer metric %s carries a bound", m.Name)
		}
	}
	if !setup {
		return fmt.Errorf("end_to_end lacks setup_s (unit s, better lower)")
	}
	return nil
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// metricValue is one reported number, in the shape the driver parses.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the last line of a run's standard output.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill turns measured values into the reported metric map for one pass
// (end-to-end when traced is false, per-layer otherwise). Every metric
// the spec lists must have been measured and nothing else may be.
func (s *benchSpec) fill(traced bool, vals map[string]float64) (map[string]metricValue, error) {
	list := s.EndToEnd
	if traced {
		list = s.PerLayer
	}
	out := make(map[string]metricValue, len(list))
	for _, m := range list {
		v, ok := vals[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is in BENCHMARK.json but was not measured", m.Name)
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	var extra []string
	for name := range vals {
		if _, ok := out[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("measured metrics %v are not in BENCHMARK.json", extra)
	}
	return out, nil
}
