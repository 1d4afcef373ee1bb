package lake

import (
	"time"

	"repro/internal/obs"
)

// Metrics is the lake's obs instrumentation. The same metric names are
// used on coordinators (store-side) and workers (client-side), so
// `/metrics/fleet` federation sums hits and misses fleet-wide. The hit and
// miss counters are one series per artifact kind, got or created on the
// registry at each count.
type Metrics struct {
	reg    *obs.Registry
	evicts *obs.Counter
	fetch  *obs.Histogram
}

// NewMetrics registers the lake_* metric family on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		reg: reg,
		evicts: reg.NewCounter("lake_evictions_total",
			"Artifact-lake blobs evicted by the size bound."),
		fetch: reg.NewHistogram("lake_fetch_seconds",
			"Artifact-lake read latency of hits: a coordinator's verified store read (resolve, blob read, verify), a worker's lake GET plus adoption.",
			obs.DurationBuckets),
	}
}

func (m *Metrics) hit(kind string) {
	if m != nil {
		m.reg.NewCounter("lake_hits_total",
			"Artifact-lake key resolutions that found an artifact.", "kind", kind).Inc()
	}
}

func (m *Metrics) miss(kind string) {
	if m != nil {
		m.reg.NewCounter("lake_misses_total",
			"Artifact-lake key resolutions that found nothing.", "kind", kind).Inc()
	}
}

func (m *Metrics) evicted() {
	if m == nil {
		return
	}
	m.evicts.Inc()
}

// observeFetch records one fetch's wall time.
func (m *Metrics) observeFetch(d time.Duration) {
	if m == nil {
		return
	}
	m.fetch.Observe(d.Seconds())
}

func (m *Metrics) setBytesFunc(fn func() float64) {
	m.reg.NewGaugeFunc("lake_bytes",
		"Artifact-lake blob bytes currently stored.", fn)
}

// noMetrics is what a store without SetMetrics counts into: every
// method is nil-safe, so the counting sites need no guards.
var noMetrics = (*Metrics)(nil)
