package main

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// repTimeout bounds one repetition; exceeding it counts as a failed
// operation and ends the run (an in-process repetition cannot be
// cancelled, so the loop must not start another beside it).
const repTimeout = 60 * time.Second

// inputsPerRun is how many distinct seeded inputs a run cycles through
// (an untraced pass gives repetition i input i%inputsPerRun). One draw of
// the campaign sample moves the simulated work by ±5% and one fold
// shuffle the training time by as much, so a run's medians are taken over
// several draws instead of hanging on one; revisiting an input lets the
// run check that equal inputs give equal outputs.
const inputsPerRun = 4

// runEnv is what a run shares with its workload.
type runEnv struct {
	seed      uint64
	campaignd string // cmd/campaignd binary, built by run.sh
	tmp       string // run-scoped scratch, removed when the run ends
	logs      string // where a failed repetition's process logs are kept
	exact     pinned
}

// pinned holds a run's deterministic outputs by name — verdict digests,
// simulated work per injection, trained models, rendered bytes: what a
// host-speed change must leave bit-identical. The first repetition to
// produce a value pins it, a later repetition of the same input must
// reproduce it, and -compare requires two result files to agree on it
// wherever they ran the same seed.
type pinned map[string]string

func (p pinned) pin(key, val string) error {
	if first, ok := p[key]; ok && first != val {
		return fmt.Errorf("%s is %s, the first repetition that produced it gave %s", key, val, first)
	}
	p[key] = val
	return nil
}

// pinFloat pins a number with all its digits.
func (p pinned) pinFloat(key string, v float64) error {
	return p.pin(key, strconv.FormatFloat(v, 'g', -1, 64))
}

// inputSeed derives the seed of the run's k-th input from the run seed.
func (e *runEnv) inputSeed(k int) uint64 {
	return e.seed*1000003 + uint64(k%inputsPerRun)
}

// sample is what one repetition measured.
type sample struct {
	rep    int           // repetition index, set by the runner
	traced bool          // the repetition ran with spans
	setup  time.Duration // wall before the timed operation could start
	wall   time.Duration // wall of the timed operation
	cpu    time.Duration // user+sys CPU of the timed operation
	// units of useful output and the wall they were produced in
	// (units_per_s = units / unitWall).
	units    float64
	unitWall time.Duration
	ops      int // operations attempted: the repetition, plus each shard on fleet workloads
	failed   int // operations that failed an output check, errored or timed out
	// layer holds per-layer counts and values read at layer boundaries
	// (traced repetitions only), keyed by metric name.
	layer map[string]float64
}

// workload is one set of inputs the benchmark runs.
type workload interface {
	// prepare does the run's one-off work: reference outputs and shared
	// inputs. It is not part of any reported time.
	prepare(ctx context.Context, env *runEnv) error
	// rep runs one repetition on the run's k-th input: set-up, the timed
	// operation, then the output checks. sc is the repetition's root span;
	// when sc is traced the repetition calls the layers piecewise with a
	// span around each call.
	rep(ctx context.Context, k int, sc scope) (sample, error)
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runner drives one workload for one pass.
type runner struct {
	name string
	w    workload
	env  *runEnv

	samples   []sample
	attempted int
	failed    int
	aborted   bool
}

// one runs a single repetition under the per-repetition timeout and
// books its operations.
func (r *runner) one(ctx context.Context, i, k int, tr *tracer) (sample, bool) {
	runtime.GC() // a repetition starts from a collected heap, whatever ran before
	rctx, cancel := context.WithTimeout(ctx, repTimeout)
	defer cancel()
	type outcome struct {
		s   sample
		err error
	}
	done := make(chan outcome, 1) // the repetition's single send never blocks, even abandoned
	go func() {
		sc := tr.root("rep", i)
		s, err := r.w.rep(rctx, k, sc)
		sc.end()
		done <- outcome{s, err}
	}()
	var o outcome
	select {
	case o = <-done:
	case <-rctx.Done():
		// Give a cancellable repetition a moment to unwind and stop its
		// processes; an in-process one is abandoned.
		select {
		case o = <-done:
		case <-time.After(5 * time.Second):
			r.aborted = true
		}
		if o.err == nil {
			o.err = fmt.Errorf("timed out after %v", repTimeout)
		}
	}
	if o.s.ops < 1 {
		o.s.ops = 1
	}
	if o.err != nil {
		if o.s.failed < 1 {
			o.s.failed = 1
		}
		logf("FAIL workload=%s rep=%d seed=%d: %v", r.name, i, r.env.seed, o.err)
	}
	r.attempted += o.s.ops
	r.failed += o.s.failed
	o.s.rep, o.s.traced = i, tr != nil
	return o.s, o.err == nil
}

// loop repeats closed-loop, one client: the next repetition starts when
// the previous one has been verified. It stops once the budget is spent
// (never before minReps), or at the first failure that cannot be
// continued from. plan gives repetition i its input and, for a traced
// repetition, the tracer.
func (r *runner) loop(ctx context.Context, budget time.Duration, minReps int, plan func(i int) (k int, tr *tracer)) {
	start := time.Now()
	failing := 0
	for i := 0; ; i++ {
		// Three failures in a row are not noise: stop instead of spending
		// the budget on (and keeping the logs of) repetitions that cannot
		// succeed.
		if ctx.Err() != nil || r.aborted || failing >= 3 {
			return
		}
		if i >= minReps {
			elapsed := time.Since(start)
			// Stop when the next repetition would overshoot the budget by
			// more than it undershoots, so runs average the asked length.
			if elapsed+elapsed/time.Duration(2*i) >= budget {
				return
			}
		}
		k, tr := plan(i)
		s, ok := r.one(ctx, i, k, tr)
		if ok {
			r.samples = append(r.samples, s)
			failing = 0
		} else {
			failing++
		}
	}
}

// endToEnd reduces the untraced samples to the end-to-end metrics: the
// median over the run's repetitions of each.
func endToEnd(samples []sample) map[string]float64 {
	var setup, wall, cpu, rate []float64
	for _, s := range samples {
		setup = append(setup, s.setup.Seconds())
		wall = append(wall, s.wall.Seconds())
		cpu = append(cpu, s.cpu.Seconds())
		if s.unitWall > 0 {
			rate = append(rate, s.units/s.unitWall.Seconds())
		}
	}
	return map[string]float64{
		"setup_s":     median(setup),
		"wall_s":      median(wall),
		"cpu_s":       median(cpu),
		"units_per_s": median(rate),
	}
}

// describe prints the end-to-end timings the way a person reads them:
// median, the highest percentile with ten samples beyond it when there
// is one, and the sample count.
func describe(name string, samples []sample) {
	cols := []struct {
		name string
		pick func(sample) time.Duration
	}{
		{"setup_s", func(s sample) time.Duration { return s.setup }},
		{"wall_s", func(s sample) time.Duration { return s.wall }},
		{"cpu_s", func(s sample) time.Duration { return s.cpu }},
	}
	for _, c := range cols {
		var ds []time.Duration
		for _, s := range samples {
			ds = append(ds, c.pick(s))
		}
		vals := seconds(ds)
		line := fmt.Sprintf("%-18s %-8s median %.4f s", name, c.name, median(vals))
		if v, pct, ok := highPercentile(vals); ok {
			line += fmt.Sprintf("  p%.0f %.4f s", pct, v)
		}
		logf("%s  n=%d", line, len(vals))
	}
}

// layerValues reduces a traced pass to per-layer values: for every
// wanted metric named <span>_ms the median over repetitions of the time
// spent in spans of that name; <span>_ms_p50 and <span>_ms_hi over the
// individual span durations; and the median of every count the
// repetitions read at layer boundaries.
func layerValues(want []metricSpec, spans []span, samples []sample, tracedReps map[int]bool) map[string]float64 {
	out := map[string]float64{}
	perRep := byRep(spans)
	for _, m := range want {
		switch {
		case strings.HasSuffix(m.Name, "_ms_p50") || strings.HasSuffix(m.Name, "_ms_hi"):
			base := strings.TrimSuffix(strings.TrimSuffix(m.Name, "_ms_p50"), "_ms_hi")
			ds := durations(spans, base)
			if len(ds) == 0 {
				continue
			}
			ms := make([]float64, len(ds))
			for i, d := range ds {
				ms[i] = millis(d)
			}
			if strings.HasSuffix(m.Name, "_p50") {
				out[m.Name] = median(ms)
			} else if v, _, ok := highPercentile(ms); ok {
				out[m.Name] = v
			}
		case strings.HasSuffix(m.Name, "_ms"):
			base := strings.TrimSuffix(m.Name, "_ms")
			var ms []float64
			for rep := range tracedReps {
				if d, ok := perRep[rep][base]; ok {
					ms = append(ms, millis(d))
				}
			}
			if len(ms) > 0 {
				out[m.Name] = median(ms)
			}
		}
	}
	counts := map[string][]float64{}
	for _, s := range samples {
		for k, v := range s.layer {
			counts[k] = append(counts[k], v)
		}
	}
	for k, vs := range counts {
		out[k] = median(vs)
	}
	return out
}
