package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// suiteEnv records what a result file was measured on.
type suiteEnv struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"` // pinned by the in-process workloads
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Seeds      int     `json:"seeds"`
	RunSeconds float64 `json:"run_seconds"`
}

// suiteRun is one run of one workload: the contract's result line, the
// deterministic outputs the run pinned, and what identifies the run.
type suiteRun struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Trace    int     `json:"trace"`
	WallS    float64 `json:"wall_s"` // the whole run, set-up and teardown included
	Exact    pinned  `json:"exact,omitempty"`
	runResult
}

// suiteFile is the result file -all writes and -compare reads.
type suiteFile struct {
	Env  suiteEnv   `json:"env"`
	Runs []suiteRun `json:"runs"`
}

func (f *suiteFile) validate() error {
	for _, r := range f.Runs {
		if !nameRE.MatchString(r.Workload) {
			return fmt.Errorf("invalid workload name %q", r.Workload)
		}
		for name := range r.Exact {
			if !nameRE.MatchString(name) {
				return fmt.Errorf("workload %s: invalid exact name %q", r.Workload, name)
			}
		}
		for name, v := range r.Metrics {
			if !nameRE.MatchString(name) {
				return fmt.Errorf("workload %s: invalid metric name %q", r.Workload, name)
			}
			if !unitRE.MatchString(v.Unit) {
				return fmt.Errorf("workload %s: metric %s has invalid unit %q", r.Workload, name, v.Unit)
			}
		}
	}
	return nil
}

func readSuite(path string) (*suiteFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f suiteFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if err := f.validate(); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &f, nil
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown" // the driver's checkout is not a git repository
	}
	return strings.TrimSpace(string(out))
}

// runSuite runs every workload of the spec for the given seeds, each run
// in its own child process of this binary (fresh heap, own rusage):
// untraced for every seed, traced for the first. It prints every metric
// by name and writes the result file. ok is false when any operation of
// any run failed.
func runSuite(ctx context.Context, spec *benchSpec, o options, seeds int, out string) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	file := suiteFile{Env: suiteEnv{
		NProc: runtime.NumCPU(), GOMAXPROCS: 2, GoVersion: runtime.Version(), Commit: commit(),
		Seed: o.seed, Seeds: seeds, RunSeconds: o.seconds,
	}}
	ok := true
	for n := 0; n < seeds; n++ {
		seed := o.seed + uint64(n)
		for _, w := range spec.Workloads {
			for trace := 0; trace <= 1; trace++ {
				if trace == 1 && n > 0 {
					continue
				}
				if ctx.Err() != nil {
					return false, ctx.Err()
				}
				start := time.Now()
				cmd := exec.CommandContext(ctx, self,
					"-campaignd", o.campaignd, "-workload", w.Name,
					"-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(trace))
				cmd.Stderr = os.Stderr
				// On interrupt let the child unwind and stop its own processes
				// before it is killed.
				cmd.Cancel = func() error { return cmd.Process.Signal(os.Interrupt) }
				cmd.WaitDelay = 10 * time.Second
				stdout, runErr := cmd.Output()
				run := suiteRun{Workload: w.Name, Seed: seed, Trace: trace, WallS: time.Since(start).Seconds()}
				lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
				if err := json.Unmarshal(lines[len(lines)-1], &run.runResult); err != nil {
					return false, fmt.Errorf("%s seed %d trace %d: no result (%v): %v", w.Name, seed, trace, runErr, err)
				}
				if n := len(lines); n >= 2 && bytes.HasPrefix(lines[n-2], []byte(exactPrefix)) {
					if err := json.Unmarshal(lines[n-2][len(exactPrefix):], &run.Exact); err != nil {
						return false, fmt.Errorf("%s seed %d trace %d: exact line: %v", w.Name, seed, trace, err)
					}
				}
				if !run.Correct || run.Failed > 0 {
					ok = false
				}
				file.Runs = append(file.Runs, run)
				printRun(os.Stdout, spec, run)
			}
		}
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return false, err
	}
	b, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return false, err
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		return false, err
	}
	fmt.Printf("result file: %s\n", out)
	return ok, nil
}

func printRun(w io.Writer, spec *benchSpec, run suiteRun) {
	list := spec.EndToEnd
	if run.Trace == 1 {
		list = spec.PerLayer
	}
	fmt.Fprintf(w, "== %s seed=%d trace=%d correct=%v operations=%d failed=%d fail_share=%g run=%.1fs\n",
		run.Workload, run.Seed, run.Trace, run.Correct, run.Attempted, run.Failed,
		float64(run.Failed)/float64(max(run.Attempted, 1)), run.WallS)
	for _, m := range list {
		if v, ok := run.Metrics[m.Name]; ok {
			fmt.Fprintf(w, "   %-34s %14.6g %s\n", m.Name, v.Value, v.Unit)
		}
	}
}

// verdict is how one end-to-end metric on one workload compares.
type verdict string

const (
	verdictPass       verdict = "pass"
	verdictRegress    verdict = "REGRESS"
	verdictMismatch   verdict = "EXACT-MISMATCH"
	verdictUnresolved verdict = "unresolved"
	verdictFailed     verdict = "FAILED"
)

// judge compares B's values of one metric with A's. Worse by more than
// the bound is a regression; but where either side's own run-to-run
// quartile spread exceeds the bound the difference cannot be told from
// noise and the metric is unresolved, not unchanged.
func judge(m metricSpec, a, b []float64) (verdict, float64) {
	ma, mb := median(a), median(b)
	var change float64 // positive = B worse, as a share of A
	if ma != 0 {
		change = (mb - ma) / ma
		if m.Better == "higher" {
			change = -change
		}
	}
	for _, vals := range [][]float64{a, b} {
		if sp, ok := spread(vals); ok && sp > *m.Bound {
			return verdictUnresolved, change
		}
	}
	if change > *m.Bound {
		return verdictRegress, change
	}
	return verdictPass, change
}

// judgeExact holds two files' runs of one workload to the same
// deterministic outputs: wherever both ran a seed (same pass), every
// pinned value both report must be equal. Nothing in common — no equal
// seeds, or a file written without pins — is unresolved, not equal.
func judgeExact(a, b *suiteFile, workload string) (v verdict, compared int, first string) {
	type key struct {
		seed  uint64
		trace int
	}
	runs := map[key]pinned{}
	for _, r := range a.Runs {
		if r.Workload == workload {
			runs[key{r.Seed, r.Trace}] = r.Exact
		}
	}
	var names []string
	v = verdictPass
	for _, r := range b.Runs {
		other, ok := runs[key{r.Seed, r.Trace}]
		if r.Workload != workload || !ok {
			continue
		}
		names = names[:0]
		for name := range r.Exact {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			want, ok := other[name]
			if !ok {
				continue // e.g. an input one of the runs never reached
			}
			compared++
			if want != r.Exact[name] && v == verdictPass {
				v = verdictMismatch
				first = fmt.Sprintf("seed %d %s: A %s, B %s", r.Seed, name, want, r.Exact[name])
			}
		}
	}
	if compared == 0 {
		return verdictUnresolved, 0, "the files share no seed with pinned outputs"
	}
	return v, compared, first
}

// compareFiles prints, per workload and end-to-end metric, both medians
// and the verdict, and per workload whether the deterministic outputs
// agree. ok is false on any regression, exact mismatch, unresolved
// metric, or failed operation in either file.
func compareFiles(w io.Writer, spec *benchSpec, pathA, pathB string) (bool, error) {
	a, err := readSuite(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSuite(pathB)
	if err != nil {
		return false, err
	}
	ok := true
	for _, wl := range spec.Workloads {
		va, failedA := collect(a, wl.Name)
		vb, failedB := collect(b, wl.Name)
		if failedA || failedB {
			ok = false
			fmt.Fprintf(w, "%-18s %-12s %s (an operation failed an output check in A=%v B=%v)\n", wl.Name, "fail_share", verdictFailed, failedA, failedB)
		}
		ev, compared, first := judgeExact(a, b, wl.Name)
		if ev != verdictPass {
			ok = false
		}
		fmt.Fprintf(w, "%-18s %-12s %d deterministic outputs compared on equal seeds  %s %s\n", wl.Name, "exact", compared, ev, first)
		for _, m := range spec.EndToEnd {
			if len(va[m.Name]) == 0 || len(vb[m.Name]) == 0 {
				ok = false
				fmt.Fprintf(w, "%-18s %-12s %s (missing from a file)\n", wl.Name, m.Name, verdictFailed)
				continue
			}
			v, change := judge(m, va[m.Name], vb[m.Name])
			if v != verdictPass {
				ok = false
			}
			sa, _ := spread(va[m.Name])
			sb, _ := spread(vb[m.Name])
			fmt.Fprintf(w, "%-18s %-12s A %12.6g  B %12.6g %-6s worse by %+6.1f%% (bound %.0f%%, spread A %.1f%% B %.1f%%, n=%d/%d)  %s\n",
				wl.Name, m.Name, median(va[m.Name]), median(vb[m.Name]), m.Unit,
				100*change, 100**m.Bound, 100*sa, 100*sb, len(va[m.Name]), len(vb[m.Name]), v)
		}
	}
	return ok, nil
}

// collect gathers a workload's untraced metric values across seeds, and
// whether any of its runs (either pass) had a failed operation.
func collect(f *suiteFile, workload string) (map[string][]float64, bool) {
	vals := map[string][]float64{}
	failed := false
	for _, r := range f.Runs {
		if r.Workload != workload {
			continue
		}
		if !r.Correct || r.Failed > 0 {
			failed = true
		}
		if r.Trace != 0 {
			continue
		}
		for name, v := range r.Metrics {
			vals[name] = append(vals[name], v.Value)
		}
	}
	return vals, failed
}
