package sweep

import (
	"sync"

	"repro/internal/shard"
)

// Event is one entry in a sweep's ordered progress stream. Seq is a
// per-sweep monotonic sequence number starting at 1 with no gaps: a
// consumer that has seen seq N can resume from N and reassemble the
// exact stream, which is what makes SSE reconnect via Last-Event-ID
// lossless. Campaign is the fp12 of the shard's campaign; Shard is the
// shard index (-1 on events that aren't about one shard). CampaignsDone
// and CampaignsTotal snapshot the sweep-level progress at emission time,
// so any single event is enough to render a progress line.
type Event struct {
	Seq            uint64 `json:"seq"`
	Type           string `json:"type"` // submit|lease|speculate|complete|fence|done
	Campaign       string `json:"campaign,omitempty"`
	Shard          int    `json:"shard"`
	Worker         string `json:"worker,omitempty"`
	CampaignsDone  int    `json:"campaigns_done"`
	CampaignsTotal int    `json:"campaigns_total"`
}

// eventLog is the pool's append-only event store. Sweeps are finite —
// bounded by shards x {lease,complete} plus rare speculation/fencing —
// so the log retains every event for its sweep's lifetime; resume after
// an arbitrarily long disconnect replays from any point. It has its own
// mutex (pool callers hold p.mu while emitting; the log never calls
// back into the pool) and a broadcast channel that is closed and
// replaced on every append, so any number of watchers can block on
// "something after seq N" without polling.
type eventLog struct {
	mu     sync.Mutex
	events []Event
	wake   chan struct{}
}

func newEventLog() *eventLog {
	return &eventLog{wake: make(chan struct{})}
}

// append stamps the next sequence number onto ev, stores it, and wakes
// every blocked watcher.
func (el *eventLog) append(ev Event) {
	el.mu.Lock()
	ev.Seq = uint64(len(el.events)) + 1
	el.events = append(el.events, ev)
	close(el.wake)
	el.wake = make(chan struct{})
	el.mu.Unlock()
}

// since returns every event with Seq > after, in order, plus a channel
// that is closed when any further event is appended. An empty slice with
// the wake channel means the caller is caught up and should block.
func (el *eventLog) since(after uint64) ([]Event, <-chan struct{}) {
	el.mu.Lock()
	defer el.mu.Unlock()
	var out []Event
	if after < uint64(len(el.events)) {
		out = append(out, el.events[after:]...)
	}
	return out, el.wake
}

// EventsSince returns the sweep's events with sequence numbers greater
// than after, plus a channel closed when more arrive. The stream starts
// with a "submit" event at seq 1, carries a lease/speculate/complete/
// fence entry for every lease-surface transition, and ends with "done"
// once the whole sweep has merged.
func (p *Pool) EventsSince(after uint64) ([]Event, <-chan struct{}) {
	return p.events.since(after)
}

// emit appends an event stamped with the current sweep-level progress.
// Callers hold p.mu (or, in NewPool, own the pool exclusively).
func (p *Pool) emit(typ, campaignFP string, shardIdx int, worker string) {
	p.events.append(Event{
		Type:           typ,
		Campaign:       shard.Short(campaignFP),
		Shard:          shardIdx,
		Worker:         worker,
		CampaignsDone:  p.doneCount,
		CampaignsTotal: len(p.items),
	})
}
