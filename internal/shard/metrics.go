package shard

import (
	"repro/internal/obs"

	"time"
)

// Metrics is the queue's and executor's instrumentation surface. All
// fields are nil-safe obs handles, so a zero or nil *Metrics disables
// instrumentation without any call-site guards. One Metrics is shared by
// every queue of a sweep pool — the series are fleet totals, with
// per-sweep breakdown left to the pool's labeled gauges.
type Metrics struct {
	Leases     *obs.Counter
	Renewals   *obs.Counter
	Expiries   *obs.Counter
	Fenced     *obs.Counter
	Speculated *obs.Counter
	// Integrity & quarantine family: completions refused on checksum
	// mismatch, audits opened, audits that diverged, shards quarantined
	// after exhausting their attempt bound, and worker-reported execution
	// failures (POST /v1/shards/fail).
	IntegrityRejects *obs.Counter
	Audits           *obs.Counter
	AuditDivergences *obs.Counter
	Quarantines      *obs.Counter
	Failures         *obs.Counter
	// ShardDur observes lease-grant-to-completion wall time, in seconds,
	// for shards finished under a live lease.
	ShardDur *obs.Histogram

	// reg is the registry the handles were minted from. The executor uses
	// it to register per-sweep cost series on demand (the sweep set isn't
	// known at NewMetrics time). Nil when instrumentation is off.
	reg *obs.Registry
}

// NewMetrics registers the shard metric family on r (eagerly, so every
// series is present at zero from the first scrape) and returns the
// handles. A nil registry yields a usable all-no-op Metrics.
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		Leases:     r.NewCounter("shard_leases_total", "Shard leases granted, including speculative backups."),
		Renewals:   r.NewCounter("shard_lease_renewals_total", "Lease heartbeat renewals accepted."),
		Expiries:   r.NewCounter("shard_lease_expiries_total", "Leases expired and requeued (or handed to a backup)."),
		Fenced:     r.NewCounter("shard_fenced_total", "Completions refused with a stale coordinator epoch."),
		Speculated: r.NewCounter("shard_speculated_total", "Straggler shards re-issued as speculative backup leases."),
		IntegrityRejects: r.NewCounter("shard_integrity_rejects_total",
			"Completions refused because the partial's integrity checksum did not match its bytes."),
		Audits: r.NewCounter("shard_audits_total", "Completed shards sampled for audit re-execution."),
		AuditDivergences: r.NewCounter("shard_audit_divergences_total",
			"Audits where two executions of one shard disagreed on the verdict sum."),
		Quarantines: r.NewCounter("shard_quarantines_total",
			"Shards quarantined after exhausting their execution attempt bound."),
		Failures: r.NewCounter("shard_failures_total",
			"Worker-reported shard execution failures (POST /v1/shards/fail)."),
		ShardDur: r.NewHistogram("shard_duration_seconds", "Observed lease-to-completion shard wall time.", obs.DurationBuckets),
		reg:      r,
	}
}

// Registry returns the registry the metrics were minted from (nil when
// instrumentation is off or m is nil).
func (m *Metrics) Registry() *obs.Registry {
	if m == nil {
		return nil
	}
	return m.reg
}

// observeDur records one completed shard's lease-to-completion time.
func (m *Metrics) observeDur(d time.Duration) {
	if m != nil {
		m.ShardDur.Observe(d.Seconds())
	}
}
