package obs

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// Fleet merges worker-pushed expositions into one federated scrape. Each
// worker periodically POSTs its registry's text exposition; Push runs it
// through the same strict ParseText every test scrape uses (a malformed
// push is rejected wholesale, never half-ingested) and stores the parsed
// series. Expose re-renders the union with a `worker` label stamped on
// every sample — series identity stays unique across workers by
// construction — plus fleet_workers{state} liveness gauges derived from
// push recency: a worker is live while the time since its last push is
// within its staleness window (3x its declared push interval, or the
// fleet default when it didn't declare one).
//
// The merged exposition round-trips through ParseText: one TYPE line per
// family, samples after their TYPE, histogram bucket/sum/count triplets
// kept intact per worker, deterministic sorted order.
type Fleet struct {
	mu      sync.Mutex
	stale   time.Duration // default staleness window
	now     func() time.Time
	workers map[string]*fleetEntry
	// quarantined, when set, supplies the count behind
	// fleet_workers{state="quarantined"} — workers the coordinator
	// refuses to lease to after repeated audit divergence. The hook runs
	// outside f.mu at Expose time.
	quarantined func() int
}

type fleetEntry struct {
	scrape     *Scrape
	pushed     time.Time
	staleAfter time.Duration
	pushes     uint64
}

// DefaultFleetStale is the liveness window for workers that don't declare
// a push interval.
const DefaultFleetStale = 30 * time.Second

// NewFleet returns an empty fleet store. stale <= 0 selects
// DefaultFleetStale.
func NewFleet(stale time.Duration) *Fleet {
	if stale <= 0 {
		stale = DefaultFleetStale
	}
	return &Fleet{stale: stale, now: time.Now, workers: map[string]*fleetEntry{}}
}

// SetNow overrides the clock (tests).
func (f *Fleet) SetNow(now func() time.Time) {
	f.mu.Lock()
	f.now = now
	f.mu.Unlock()
}

// SetQuarantined installs the quarantined-worker count source behind
// fleet_workers{state="quarantined"}; nil (the default) omits the
// series. The hook is called without the fleet lock held.
func (f *Fleet) SetQuarantined(count func() int) {
	f.mu.Lock()
	f.quarantined = count
	f.mu.Unlock()
}

// Push ingests one worker's exposition text, replacing whatever that
// worker pushed before. interval is the worker's declared push cadence
// (its staleness window becomes 3x that); interval <= 0 keeps the fleet
// default. The push is rejected — atomically, the previous snapshot kept —
// if the text fails the strict parser, any series already carries a
// `worker` label, any family name collides with the fleet's own
// `fleet_*` series, a family's declared type conflicts with the type
// another worker pushed for the same family, or a histogram family one of
// the two declares would claim a sample the other pushed outside it.
func (f *Fleet) Push(worker, text string, interval time.Duration) error {
	if worker == "" {
		return fmt.Errorf("fleet push: empty worker name")
	}
	sc, err := ParseText(text)
	if err != nil {
		return fmt.Errorf("fleet push from %q: %v", worker, err)
	}
	for key, s := range sc.Series {
		if _, clash := s.Labels["worker"]; clash {
			return fmt.Errorf("fleet push from %q: series %s already carries the reserved worker label", worker, key)
		}
		if strings.HasPrefix(s.Name, "fleet_") {
			return fmt.Errorf("fleet push from %q: series %s collides with the fleet_ namespace", worker, key)
		}
	}
	for name := range sc.Types {
		if strings.HasPrefix(name, "fleet_") {
			return fmt.Errorf("fleet push from %q: family %s collides with the fleet_ namespace", worker, name)
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for other, e := range f.workers {
		if other == worker {
			continue
		}
		for name, kind := range sc.Types {
			if have, ok := e.scrape.Types[name]; ok && have != kind {
				return fmt.Errorf("fleet push from %q: family %s is %s but worker %q pushed it as %s",
					worker, name, kind, other, have)
			}
		}
		if name, fam, ok := strayMember(sc, e.scrape); ok {
			return fmt.Errorf("fleet push from %q: series %s falls in histogram %s, which worker %q declares", worker, name, fam, other)
		}
		if name, fam, ok := strayMember(e.scrape, sc); ok {
			return fmt.Errorf("fleet push from %q: histogram %s claims series %s, which worker %q pushed outside it", worker, fam, name, other)
		}
	}
	staleAfter := f.stale
	if interval > 0 {
		staleAfter = 3 * interval
	}
	prev := f.workers[worker]
	e := &fleetEntry{scrape: sc, pushed: f.now(), staleAfter: staleAfter}
	if prev != nil {
		e.pushes = prev.pushes
	}
	e.pushes++
	f.workers[worker] = e
	return nil
}

// strayMember returns a sample of a that b's histogram TYPE lines claim
// for a family a does not declare a histogram. Merged, the sample would
// sit in b's histogram under a's worker label without the bucket set the
// parser demands, and the federated exposition would fail to parse.
func strayMember(a, b *Scrape) (name, family string, ok bool) {
	for _, s := range a.Series {
		if fam := familyOf(s.Name, b.Types); fam != s.Name && a.Types[fam] != "histogram" {
			return s.Name, fam, true
		}
	}
	return "", "", false
}

// Workers returns the number of live and stale workers at now.
func (f *Fleet) Workers() (live, stale int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.countLocked(f.now())
}

func (f *Fleet) countLocked(now time.Time) (live, stale int) {
	for _, e := range f.workers {
		if now.Sub(e.pushed) <= e.staleAfter {
			live++
		} else {
			stale++
		}
	}
	return live, stale
}

// Expose renders the federated exposition: every pushed series with a
// `worker` label added, families sorted by name with one TYPE line each
// and lexicographically sorted samples, plus the fleet's own series
// (fleet_workers{state} liveness gauges, fleet_pushes_total{worker}).
// Stale workers' series remain exposed — their last known state is still
// information — and are accounted under fleet_workers{state="stale"}.
func (f *Fleet) Expose() string {
	f.mu.Lock()
	qcount := f.quarantined
	f.mu.Unlock()
	quarantined := -1
	if qcount != nil {
		quarantined = qcount()
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	now := f.now()

	type fam struct {
		kind  string
		lines []string
	}
	fams := map[string]*fam{}
	getFam := func(name string) *fam {
		fm := fams[name]
		if fm == nil {
			fm = &fam{}
			fams[name] = fm
		}
		return fm
	}
	names := make([]string, 0, len(f.workers))
	for w := range f.workers {
		names = append(names, w)
	}
	sort.Strings(names)
	for _, w := range names {
		e := f.workers[w]
		for name, kind := range e.scrape.Types {
			getFam(name).kind = kind
		}
		for _, s := range e.scrape.Series {
			labels := flatten(s.Labels)
			labels = append(labels, "worker", w)
			line := s.Name + renderLabels(labels) + " " + formatFloat(s.Value)
			getFam(familyOf(s.Name, e.scrape.Types)).lines = append(getFam(familyOf(s.Name, e.scrape.Types)).lines, line)
		}
	}

	live, stale := f.countLocked(now)
	workerLines := []string{
		`fleet_workers{state="live"} ` + formatFloat(float64(live)),
		`fleet_workers{state="stale"} ` + formatFloat(float64(stale)),
	}
	if quarantined >= 0 {
		workerLines = append(workerLines, `fleet_workers{state="quarantined"} `+formatFloat(float64(quarantined)))
	}
	fams["fleet_workers"] = &fam{kind: "gauge", lines: workerLines}
	pushes := &fam{kind: "counter"}
	for _, w := range names {
		pushes.lines = append(pushes.lines,
			`fleet_pushes_total{worker="`+escapeLabel(w)+`"} `+formatFloat(float64(f.workers[w].pushes)))
	}
	if len(pushes.lines) > 0 {
		fams["fleet_pushes_total"] = pushes
	}

	famNames := make([]string, 0, len(fams))
	for name := range fams {
		famNames = append(famNames, name)
	}
	sort.Strings(famNames)
	var sb strings.Builder
	for _, name := range famNames {
		fm := fams[name]
		if fm.kind != "" {
			fmt.Fprintf(&sb, "# TYPE %s %s\n", name, fm.kind)
		}
		sort.Strings(fm.lines)
		for _, line := range fm.lines {
			sb.WriteString(line)
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// Handler serves the federated exposition, suitable for mounting at
// GET /metrics/fleet.
func (f *Fleet) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		fmt.Fprint(w, f.Expose())
	})
}
