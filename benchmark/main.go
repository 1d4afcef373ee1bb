// Command benchmark is the repository's benchmark harness: six workloads
// from the fault-injection kernel to SVM training to a loopback campaignd
// fleet, measured from outside through the layers' public functions and
// real cmd/campaignd processes. BENCHMARK.json at the repository root is
// its contract; benchmark/run.sh builds and runs it.
//
//	benchmark/run.sh --workload campaign_event --seed 1 --seconds 12 --trace 0
//	benchmark/run.sh --all --seed 1 --seeds 10 --out A.json   # every workload, ten seeds
//	benchmark/run.sh --compare A.json B.json                   # A/A or parent-vs-change
//
// One run drives one workload for --seconds, closed-loop with one client:
// untraced (--trace 0) it prints the end-to-end metrics, traced
// (--trace 1) the per-layer metrics, as one JSON object on the last line
// of standard output. See README.md beside this file.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/sim"
)

// buildDir holds everything a run writes, and specPath is the contract —
// workloads, metric names, units, bounds — both relative to the checkout
// root the command runs from (run.sh changes into it).
const (
	buildDir = ".bench_build"
	specPath = "BENCHMARK.json"
)

// runDeadline ends a run that hangs, inside the driver's 180-second cap.
const runDeadline = 170 * time.Second

func newWorkload(name string) workload {
	big := []design{{5, "crc"}, {8, "memcpy"}, {10, "sort"}}
	switch name {
	case "campaign_event":
		return &campaignWorkload{designs: big, engine: sim.KindEvent}
	case "campaign_level":
		return &campaignWorkload{designs: big, engine: sim.KindLevel}
	case "campaign_cold_vcd":
		return &campaignWorkload{designs: []design{{1, "memcpy"}, {3, "dot"}}, engine: sim.KindEvent, coldVCD: true}
	case "ml_train":
		return &mlWorkload{}
	case "fleet_cold":
		return &fleetWorkload{}
	case "fleet_warm":
		return &fleetWorkload{warm: true}
	}
	return nil
}

type options struct {
	campaignd string
	workload  string
	seed      uint64
	seconds   float64
	traced    bool
}

func main() {
	var o options
	var trace, seeds int
	var all, compare bool
	var out string
	flag.StringVar(&o.campaignd, "campaignd", "", "cmd/campaignd binary the fleet workloads spawn (run.sh builds it)")
	flag.StringVar(&o.workload, "workload", "", "workload to run")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 0, "how long one run measures (default: run_seconds of the spec)")
	flag.IntVar(&trace, "trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass and layer probes, per-layer metrics")
	flag.BoolVar(&all, "all", false, "run every workload untraced for -seeds seeds, and traced on the first, and write a result file")
	flag.IntVar(&seeds, "seeds", 1, "-all: number of consecutive seeds starting at -seed")
	flag.StringVar(&out, "out", "", "-all: result file (default "+buildDir+"/results/seed-<seed>.json)")
	flag.BoolVar(&compare, "compare", false, "compare two result files: -compare A.json B.json")
	flag.Parse()
	o.traced = trace != 0

	spec, err := loadSpec(specPath)
	if err != nil {
		fatal(err)
	}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	switch {
	case compare:
		if flag.NArg() != 2 {
			fatal(errors.New("usage: -compare A.json B.json"))
		}
		ok, err := compareFiles(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case all:
		if out == "" {
			out = filepath.Join(buildDir, "results", fmt.Sprintf("seed-%d.json", o.seed))
		}
		ok, err := runSuite(ctx, spec, o, seeds, out)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		if !spec.hasWorkload(o.workload) {
			fatal(fmt.Errorf("unknown workload %q (see %s)", o.workload, specPath))
		}
		ctx, cancel := context.WithTimeout(ctx, runDeadline)
		defer cancel()
		res, exact, err := runOne(ctx, spec, o)
		if err != nil {
			fatal(err)
		}
		pins, err := json.Marshal(exact)
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		// The result is the last line; the run's deterministic outputs go on
		// the line before it, for -all to file and -compare to hold equal.
		fmt.Println(exactPrefix + string(pins))
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

// exactPrefix starts the standard-output line that carries a run's pinned
// deterministic outputs.
const exactPrefix = "exact "

// runOne drives one workload for one pass and reduces it to the
// contract's result, plus the deterministic outputs the run pinned. An
// error means the run could not measure at all; failed operations are
// reported in the result instead.
func runOne(ctx context.Context, spec *benchSpec, o options) (*runResult, pinned, error) {
	base, err := filepath.Abs(buildDir)
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(filepath.Join(base, "tmp"), 0o755); err != nil {
		return nil, nil, err
	}
	tmp, err := os.MkdirTemp(filepath.Join(base, "tmp"), "run-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(tmp)
	env := &runEnv{seed: o.seed, campaignd: o.campaignd, tmp: tmp, logs: filepath.Join(base, "logs"), exact: pinned{}}

	w := newWorkload(o.workload)
	if w == nil {
		return nil, nil, fmt.Errorf("workload %q is in the spec but not in the harness", o.workload)
	}
	if _, fleet := w.(*fleetWorkload); fleet {
		if o.campaignd == "" {
			return nil, nil, errNoCampaignd
		}
		if env.campaignd, err = filepath.Abs(o.campaignd); err != nil {
			return nil, nil, err
		}
	}
	if err := w.prepare(ctx, env); err != nil {
		return nil, nil, fmt.Errorf("%s set-up: %v", o.workload, err)
	}

	r := &runner{name: o.workload, w: w, env: env}
	budget := time.Duration(o.seconds * float64(time.Second))
	var vals map[string]float64
	if !o.traced {
		r.loop(ctx, budget, 3, func(i int) (int, *tracer) { return i % inputsPerRun, nil })
		describe(o.workload, r.samples)
		vals = endToEnd(r.samples)
	} else if vals, err = tracedPass(ctx, spec, r, budget, base); err != nil {
		return nil, nil, err
	}
	if ctx.Err() != nil {
		return nil, nil, fmt.Errorf("interrupted: %v", ctx.Err())
	}
	if len(r.samples) == 0 {
		return nil, nil, fmt.Errorf("%s: no repetition succeeded (%d of %d operations failed)", o.workload, r.failed, r.attempted)
	}
	metrics, err := spec.fill(o.traced, vals)
	if err != nil {
		return nil, nil, err
	}
	return &runResult{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics}, env.exact, nil
}

// tracedPass alternates untraced and traced repetitions, each pair on the
// same input, for a shorter budget — the wall difference between the two
// is the tracing overhead, and the traced repetition must reproduce the
// untraced one's outputs — then runs the layer probes, writes the Chrome trace, and returns every
// per-layer metric (0 for a layer the workload never enters).
func tracedPass(ctx context.Context, spec *benchSpec, r *runner, budget time.Duration, base string) (map[string]float64, error) {
	tr := &tracer{}
	r.loop(ctx, budget*3/4, 4, func(i int) (int, *tracer) {
		k := i / 2 % inputsPerRun
		if i%2 == 1 {
			return k, tr
		}
		return k, nil
	})
	var traced []sample
	var plainWall, tracedWall []float64
	tracedReps := map[int]bool{}
	for _, s := range r.samples {
		if s.traced {
			traced = append(traced, s)
			tracedReps[s.rep] = true
			tracedWall = append(tracedWall, s.wall.Seconds())
		} else {
			plainWall = append(plainWall, s.wall.Seconds())
		}
	}
	spans := tr.snapshot()
	vals := map[string]float64{}
	for _, m := range spec.PerLayer {
		vals[m.Name] = 0
	}
	for k, v := range layerValues(spec.PerLayer, spans, traced, tracedReps) {
		vals[k] = v
	}
	if ctx.Err() == nil {
		probes, err := layerProbes(r.env.tmp)
		if err != nil {
			return nil, fmt.Errorf("layer probes: %v", err)
		}
		for k, v := range probes {
			vals[k] = v
		}
	}
	vals["harness.traced_reps"] = float64(len(traced))
	vals["harness.self_time_coverage"] = coverage(spans)
	if p := median(plainWall); p > 0 && len(tracedWall) > 0 {
		vals["harness.trace_overhead_share"] = (median(tracedWall) - p) / p
	}
	vals["harness.peak_rss_mb"] = selfPeakRSSMB()
	if b, err := os.ReadFile(filepath.Join(base, "build_s")); err == nil {
		vals["harness.build_s"], _ = strconv.ParseFloat(strings.TrimSpace(string(b)), 64) // absent or garbled: 0
	}
	dir := filepath.Join(base, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.trace.json", r.name, r.env.seed))
	if err := writeTrace(path, spans); err != nil {
		return nil, err
	}
	logf("%s: %d traced repetitions, %d spans → %s", r.name, len(traced), len(spans), path)
	return vals, nil
}
