package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one timed interval at a layer boundary, recorded by the harness
// around its call into the layer. Spans of one repetition share Rep;
// Parent is the index of the span that caused this one (-1 for a
// repetition's root). Track separates concurrent actors: 0 is the
// harness's client path, 1.. are the in-harness fleet workers.
type span struct {
	Name       string
	Track      int64
	Rep        int
	Parent     int
	Start, End time.Time
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced pass runs the same code with no span cost
// beyond reading the clock.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// scope is a handle on one open span (or, untraced, just its start time).
type scope struct {
	t     *tracer
	id    int
	rep   int
	track int64
	start time.Time
}

// root opens the root span of repetition rep.
func (t *tracer) root(name string, rep int) scope {
	return t.open(name, -1, rep, 0)
}

func (t *tracer) open(name string, parent, rep int, track int64) scope {
	s := scope{t: t, id: -1, rep: rep, track: track, start: time.Now()}
	if t == nil {
		return s
	}
	t.mu.Lock()
	s.id = len(t.spans)
	t.spans = append(t.spans, span{Name: name, Track: track, Rep: rep, Parent: parent, Start: s.start})
	t.mu.Unlock()
	return s
}

// child opens a span caused by s on the same track.
func (s scope) child(name string) scope { return s.t.open(name, s.id, s.rep, s.track) }

// on opens a span caused by s on another track (an in-harness worker).
func (s scope) on(track int64, name string) scope { return s.t.open(name, s.id, s.rep, track) }

// record adds an already-finished span caused by s, for intervals whose
// name is only known once they end (a lease poll that came back idle).
func (s scope) record(track int64, name string, start, end time.Time) {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, span{Name: name, Track: track, Rep: s.rep, Parent: s.id, Start: start, End: end})
	s.t.mu.Unlock()
}

// end closes the span and returns its duration.
func (s scope) end() time.Duration {
	now := time.Now()
	if s.t != nil {
		s.t.mu.Lock()
		s.t.spans[s.id].End = now
		s.t.mu.Unlock()
	}
	return now.Sub(s.start)
}

// snapshot returns the closed spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End.IsZero() {
			s.End = s.Start // never closed (the rep failed): zero length
		}
		out = append(out, s)
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of that
// interval its same-track child spans cover. Children may overlap each
// other; the covered part is the union of their intervals clipped to the
// parent. Children on another track run concurrently with the parent and
// subtract nothing.
func selfTimes(spans []span) []time.Duration {
	type iv struct{ a, b time.Time }
	kids := make([][]iv, len(spans))
	for _, s := range spans {
		if s.Parent < 0 || s.Parent >= len(spans) || spans[s.Parent].Track != s.Track {
			continue
		}
		p := spans[s.Parent]
		a, b := s.Start, s.End
		if a.Before(p.Start) {
			a = p.Start
		}
		if b.After(p.End) {
			b = p.End
		}
		if b.After(a) {
			kids[s.Parent] = append(kids[s.Parent], iv{a, b})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := kids[i]
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a.Before(ivs[y].a) })
		var covered time.Duration
		var cur iv
		for j, k := range ivs {
			switch {
			case j == 0:
				cur = k
			case !k.a.After(cur.b):
				if k.b.After(cur.b) {
					cur.b = k.b
				}
			default:
				covered += cur.b.Sub(cur.a)
				cur = k
			}
		}
		if len(ivs) > 0 {
			covered += cur.b.Sub(cur.a)
		}
		out[i] = s.End.Sub(s.Start) - covered
	}
	return out
}

// coverage is Σ self time of the client-track layer spans ÷ Σ root span
// time: the share of the traced wall that is attributed to a named call.
// Layer spans are the ones named <module>.<x>; the spans that only group
// them (rep, setup, campaign, verify, ...) tile their parent by
// construction, so their self time is exactly the part nobody accounted
// for and is left out.
func coverage(spans []span) float64 {
	self := selfTimes(spans)
	var roots, layers time.Duration
	for i, s := range spans {
		switch {
		case s.Parent < 0:
			roots += s.End.Sub(s.Start)
		case s.Track == 0 && strings.Contains(s.Name, "."):
			layers += self[i]
		}
	}
	if roots == 0 {
		return 0
	}
	return float64(layers) / float64(roots)
}

// byRep sums span durations per repetition and name.
func byRep(spans []span) map[int]map[string]time.Duration {
	out := map[int]map[string]time.Duration{}
	for _, s := range spans {
		m := out[s.Rep]
		if m == nil {
			m = map[string]time.Duration{}
			out[s.Rep] = m
		}
		m[s.Name] += s.End.Sub(s.Start)
	}
	return out
}

// durations returns every span duration recorded under name.
func durations(spans []span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.End.Sub(s.Start))
		}
	}
	return out
}

// chromeTrace renders spans as Chrome trace_event JSON (Object Format,
// complete "X" events, microseconds from the first span's start).
func chromeTrace(spans []span) ([]byte, error) {
	events := []obs.TraceEvent{}
	var base time.Time
	for _, s := range spans {
		if base.IsZero() || s.Start.Before(base) {
			base = s.Start
		}
	}
	for _, s := range spans {
		args := map[string]any{"rep": s.Rep}
		if s.Parent >= 0 && s.Parent < len(spans) {
			args["parent"] = spans[s.Parent].Name
		}
		dur := s.End.Sub(s.Start).Microseconds()
		if dur < 1 {
			dur = 1
		}
		events = append(events, obs.TraceEvent{
			Name: s.Name, Cat: "bench", Ph: "X",
			TS: s.Start.Sub(base).Microseconds(), Dur: dur,
			PID: 1, TID: s.Track, Args: args,
		})
	}
	return json.MarshalIndent(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}, "", " ")
}

// writeTrace writes the spans as a Chrome trace file after checking the
// bytes with the repo's own trace validator.
func writeTrace(path string, spans []span) error {
	b, err := chromeTrace(spans)
	if err != nil {
		return err
	}
	if _, err := obs.ValidateTrace(b); err != nil {
		return fmt.Errorf("trace %s: %v", path, err)
	}
	return os.WriteFile(path, b, 0o644)
}
