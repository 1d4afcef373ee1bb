package lake

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// Metrics is the lake's obs instrumentation. The same metric names are
// used on coordinators (store-side) and workers (client-side), so
// `/metrics/fleet` federation sums hits and misses fleet-wide.
type Metrics struct {
	reg *obs.Registry

	mu     sync.Mutex
	hits   map[string]*obs.Counter
	misses map[string]*obs.Counter

	evicts *obs.Counter
	fetch  *obs.Histogram
}

// NewMetrics registers the lake_* metric family on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		reg:    reg,
		hits:   map[string]*obs.Counter{},
		misses: map[string]*obs.Counter{},
		evicts: reg.NewCounter("lake_evictions_total",
			"Artifact-lake blobs evicted by the size bound."),
		fetch: reg.NewHistogram("lake_fetch_seconds",
			"Artifact-lake fetch latency (resolve + blob read).",
			obs.DurationBuckets),
	}
}

func (m *Metrics) hit(kind string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	c, ok := m.hits[kind]
	if !ok {
		c = m.reg.NewCounter("lake_hits_total",
			"Artifact-lake key resolutions that found an artifact.", "kind", kind)
		m.hits[kind] = c
	}
	m.mu.Unlock()
	c.Inc()
}

func (m *Metrics) miss(kind string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	c, ok := m.misses[kind]
	if !ok {
		c = m.reg.NewCounter("lake_misses_total",
			"Artifact-lake key resolutions that found nothing.", "kind", kind)
		m.misses[kind] = c
	}
	m.mu.Unlock()
	c.Inc()
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

// Hits returns the current hit count for kind (test hook).
func (m *Metrics) Hits(kind string) uint64 {
	m.mu.Lock()
	c := m.hits[kind]
	m.mu.Unlock()
	if c == nil {
		return 0
	}
	return c.Value()
}

// Misses returns the current miss count for kind (test hook).
func (m *Metrics) Misses(kind string) uint64 {
	m.mu.Lock()
	c := m.misses[kind]
	m.mu.Unlock()
	if c == nil {
		return 0
	}
	return c.Value()
}

func (m *Metrics) setBytesFunc(fn func() float64) {
	m.reg.NewGaugeFunc("lake_bytes",
		"Artifact-lake blob bytes currently stored.", fn)
}

// noMetrics is what a store without SetMetrics counts into: every
// method is nil-safe, so the counting sites need no guards.
var noMetrics = (*Metrics)(nil)
