package inject

import (
	"time"

	"repro/internal/obs"
)

// workCounters is the one table of the Work counters an obs registry
// carries: the series name suffix (inject_<suffix>_total for the
// process-lifetime totals, sweep_cost_<suffix>_total per sweep), the help
// text of each family, and the field the counter mirrors. InjectWall has
// no counter; the per-sweep shard wall is counted by shard.Executor.
var workCounters = [...]struct {
	suffix, help, costHelp string
	of                     func(Work) uint64
}{
	{"evals", "Simulator cell evaluations spent in injection runs.", "Simulator cell evaluations attributed to the sweep.",
		func(w Work) uint64 { return w.InjectEvals }},
	{"warm_starts", "Injections resumed from a golden checkpoint instead of t=0.", "Warm starts attributed to the sweep.",
		func(w Work) uint64 { return w.WarmStarts }},
	{"pruned_runs", "Warm starts terminated early on golden re-convergence.", "Pruned runs attributed to the sweep.",
		func(w Work) uint64 { return w.PrunedRuns }},
	{"delta_restores", "Warm starts reset via the dirty-set delta path.", "Delta restores attributed to the sweep.",
		func(w Work) uint64 { return w.DeltaRestores }},
	{"restore_wall_ns", "Wall nanoseconds workers spent inside engine restores.", "Restore wall nanoseconds attributed to the sweep.",
		func(w Work) uint64 { return uint64(w.RestoreWall) }},
	{"word_evals", "Cell evaluations lane passes performed, one per cell per sweep for all lanes.", "Lane-pass cell evaluations attributed to the sweep.",
		func(w Work) uint64 { return w.WordEvals }},
}

// Metrics mirrors Work into an obs registry as it accumulates, so an
// operator can watch warm-start efficiency live instead of waiting for the
// end-of-run Result. All handles are nil-safe; a nil *Metrics disables
// instrumentation entirely. Metrics never feed back into simulation —
// verdicts and Result counters are identical with or without it
// (cmd/campaignd's TestObsSmoke pins the rendered bytes).
type Metrics struct {
	counters [len(workCounters)]*obs.Counter
	// Tracer receives one "inject" span per RunJobs range, plus a
	// synthetic "restore" span whose duration is the range's cumulative
	// restore wall.
	Tracer *obs.Tracer
}

// NewMetrics registers the inject_*_total family on r (eagerly, so series
// exist at zero from the first scrape) and returns the handles. A nil
// registry yields a usable all-no-op Metrics.
func NewMetrics(r *obs.Registry) *Metrics {
	m := &Metrics{}
	for i, wc := range workCounters {
		m.counters[i] = r.NewCounter("inject_"+wc.suffix+"_total", wc.help)
	}
	return m
}

// NewCostMetrics registers the per-sweep cost attribution family on r —
// the same counters, named sweep_cost_*_total and labeled with the
// sweep's fp12 — and returns the handles. These series exist only once
// this process has executed a shard of the sweep; they are how a worker's
// spend is broken down by sweep on the federated scrape. A nil registry
// yields an all-no-op Metrics.
func NewCostMetrics(r *obs.Registry, sweep string) *Metrics {
	m := &Metrics{}
	for i, wc := range workCounters {
		m.counters[i] = r.NewCounter("sweep_cost_"+wc.suffix+"_total", wc.costHelp, "sweep", sweep)
	}
	return m
}

// Record adds w to the counters.
func (m *Metrics) Record(w Work) {
	if m == nil {
		return
	}
	for i, wc := range workCounters {
		m.counters[i].Add(wc.of(w))
	}
}

// record publishes one RunJobs range's work and spans.
func (m *Metrics) record(began time.Time, start, end int, w Work) {
	if m == nil {
		return
	}
	m.Record(w)
	args := map[string]any{"start": start, "end": end, "evals": w.InjectEvals, "warm_starts": w.WarmStarts, "word_evals": w.WordEvals}
	m.Tracer.Span("inject", "inject", 0, int64(start), began, args)
	if restoreNS := w.RestoreWall.Nanoseconds(); restoreNS > 0 {
		// Synthetic span: restores are scattered inside the range, so the
		// journal carries one back-dated span whose duration is the range's
		// cumulative restore wall.
		m.Tracer.Span("restore", "inject", 0, int64(start), time.Now().Add(-w.RestoreWall),
			map[string]any{"restore_wall_ns": restoreNS, "delta_restores": w.DeltaRestores})
	}
}
