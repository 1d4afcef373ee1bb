package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func bound(b float64) *float64 { return &b }

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "wall_s", Unit: "s", Better: "lower", Bound: bound(0.10)}
	higher := metricSpec{Name: "units_per_s", Unit: "1/s", Better: "higher", Bound: bound(0.10)}
	steady := func(v float64) []float64 {
		return []float64{v * 0.99, v, v * 1.01, v, v * 0.995, v * 1.005, v, v * 0.99, v * 1.01, v}
	}
	noisy := []float64{1.0, 1.3, 0.8, 1.25, 0.9, 1.2, 0.85, 1.15, 1.0, 1.1}
	for _, c := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want verdict
	}{
		{"same", lower, steady(1), steady(1), verdictPass},
		{"within bound", lower, steady(1), steady(1.08), verdictPass},
		{"slower beyond bound", lower, steady(1), steady(1.15), verdictRegress},
		{"faster is never a regression", lower, steady(1), steady(0.5), verdictPass},
		{"throughput drop", higher, steady(1000), steady(850), verdictRegress},
		{"throughput gain", higher, steady(1000), steady(1500), verdictPass},
		{"noise wider than the bound hides the answer", lower, steady(1), noisy, verdictUnresolved},
		{"noisy baseline too", lower, noisy, steady(2), verdictUnresolved},
		{"single samples have no spread", lower, []float64{1}, []float64{1.05}, verdictPass},
	} {
		if got, _ := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func testSpec() *benchSpec {
	return &benchSpec{
		Workloads: []workloadSpec{{Name: "w1"}, {Name: "w2"}},
		EndToEnd: []metricSpec{
			{Name: "setup_s", Unit: "s", Better: "lower", Bound: bound(0.25)},
			{Name: "wall_s", Unit: "s", Better: "lower", Bound: bound(0.10)},
		},
		PerLayer: []metricSpec{{Name: "sim.event.ns_per_eval", Unit: "ns", Better: "lower"}},
	}
}

func testFile(wall map[string]float64, failed int) *suiteFile {
	f := &suiteFile{Env: suiteEnv{NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24", Commit: "abc", Seed: 1, Seeds: 4, RunSeconds: 12}}
	for _, w := range []string{"w1", "w2"} {
		for seed := uint64(1); seed <= 4; seed++ {
			exact := pinned{"input0.verdict_digest": "ab12" + w, "input0.evals_per_inj": "5234.25"}
			f.Runs = append(f.Runs, suiteRun{Workload: w, Seed: seed, Trace: 0, WallS: 13, Exact: exact, runResult: runResult{
				Correct: failed == 0, Attempted: 8, Failed: failed,
				Metrics: map[string]metricValue{
					"setup_s": {0.07 + 0.0001*float64(seed), "s"},
					"wall_s":  {wall[w] * (1 + 0.001*float64(seed)), "s"},
				},
			}})
		}
		f.Runs = append(f.Runs, suiteRun{Workload: w, Seed: 1, Trace: 1, runResult: runResult{
			Correct: true, Attempted: 4, Metrics: map[string]metricValue{"sim.event.ns_per_eval": {100, "ns"}},
		}})
	}
	return f
}

func writeFile(t *testing.T, f *suiteFile) string {
	t.Helper()
	b, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "r.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareFiles(t *testing.T) {
	base := writeFile(t, testFile(map[string]float64{"w1": 1.0, "w2": 2.0}, 0))
	same := map[string]float64{"w1": 1.0, "w2": 2.0}
	// Equal timings, but one run of w2 simulated different work.
	drifted := testFile(same, 0)
	drifted.Runs[len(drifted.Runs)-2].Exact["input0.evals_per_inj"] = "5234.5"
	// Other seeds: nothing deterministic can be held equal.
	shifted := testFile(same, 0)
	for i := range shifted.Runs {
		shifted.Runs[i].Seed += 100
	}
	// An input only one side reached is skipped, not a mismatch.
	partial := testFile(same, 0)
	partial.Runs[0].Exact["input3.verdict_digest"] = "ffff"
	for _, c := range []struct {
		name   string
		other  *suiteFile
		ok     bool
		expect string
	}{
		{"A/A", testFile(map[string]float64{"w1": 1.0, "w2": 2.0}, 0), true, ""},
		{"w2 regressed", testFile(map[string]float64{"w1": 1.0, "w2": 2.5}, 0), false, "REGRESS"},
		{"w1 faster", testFile(map[string]float64{"w1": 0.5, "w2": 2.0}, 0), true, ""},
		{"an output check failed", testFile(map[string]float64{"w1": 1.0, "w2": 2.0}, 1), false, "FAILED"},
		{"simulated work changed", drifted, false, "EXACT-MISMATCH seed 4 input0.evals_per_inj: A 5234.25, B 5234.5"},
		{"no equal seeds", shifted, false, "unresolved the files share no seed"},
		{"an input one side never ran", partial, true, ""},
	} {
		var out bytes.Buffer
		ok, err := compareFiles(&out, testSpec(), base, writeFile(t, c.other))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if ok != c.ok || !strings.Contains(out.String(), c.expect) {
			t.Errorf("%s: ok=%v, want %v with %q in:\n%s", c.name, ok, c.ok, c.expect, out.String())
		}
		for _, once := range []string{"REGRESS", "EXACT-MISMATCH"} {
			if strings.HasPrefix(c.expect, once) && strings.Count(out.String(), once) != 1 {
				t.Errorf("%s: only w2 has a %s, got:\n%s", c.name, once, out.String())
			}
		}
	}
}

func TestSuiteFileRoundTripAndNames(t *testing.T) {
	want := testFile(map[string]float64{"w1": 1.0, "w2": 2.0}, 0)
	got, err := readSuite(writeFile(t, want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the file:\n got %+v\nwant %+v", got, want)
	}
	for _, bad := range []string{"", "has space", "semi;colon", "-leading", strings.Repeat("x", 65)} {
		f := testFile(map[string]float64{"w1": 1, "w2": 2}, 0)
		f.Runs[0].Metrics[bad] = metricValue{1, "s"}
		if _, err := readSuite(writeFile(t, f)); err == nil {
			t.Errorf("metric name %q was accepted", bad)
		}
	}
	f := testFile(map[string]float64{"w1": 1, "w2": 2}, 0)
	f.Runs[0].Metrics["wall_s"] = metricValue{1, "bad unit"}
	if _, err := readSuite(writeFile(t, f)); err == nil {
		t.Error("unit with a space was accepted")
	}
}
