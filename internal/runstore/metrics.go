package runstore

import "repro/internal/obs"

// Metrics is the journal's instrumentation surface: appends and
// compactions on the Store, and leader-lease state from the coordinator's
// renewal loop. All handles are nil-safe, so a nil *Metrics (or one built
// over a nil registry) disables instrumentation with no call-site guards.
type Metrics struct {
	Appends     *obs.Counter
	Compactions *obs.Counter
	// LeaderEpoch is the coordinator incarnation currently holding the
	// journal's leader lease; LeaderRenewals counts its heartbeat writes.
	// Both are driven by campaignd's lease claim and renewal loop, not by
	// runstore itself — the lease file is written through WriteLeaderLease.
	LeaderEpoch    *obs.Gauge
	LeaderRenewals *obs.Counter
}

// NewMetrics registers the runstore metric family on r (eagerly, so every
// series is present at zero from the first scrape) and returns the
// handles. A nil registry yields a usable all-no-op Metrics.
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		Appends:        r.NewCounter("runstore_appends_total", "Journal records appended."),
		Compactions:    r.NewCounter("runstore_compactions_total", "Journal compaction rewrites performed."),
		LeaderEpoch:    r.NewGauge("runstore_leader_epoch", "Coordinator epoch holding the journal leader lease."),
		LeaderRenewals: r.NewCounter("runstore_leader_renewals_total", "Leader-lease heartbeat renewals written."),
	}
}
