package sim

import (
	"slices"

	"repro/internal/logic"
)

// event is one scheduled action, held by value in a queue's arena.
type event struct {
	t         uint64
	seq       uint64
	phase     uint32
	kind      actKind
	cancelled bool
	val       logic.V
	net       int32
	cellID    int32
	// ckIdx is the event's index in the last-restored checkpoint's queue,
	// which is also its arena slot, or -1 for an event scheduled since
	// (dynamically or by a caller) and for a freed slot.
	ckIdx int32
	fn    func()
}

// entry is a heap element: an arena slot with its event's order key
// (t, phase, seq) inline.
type entry struct {
	t, seq uint64
	phase  uint32
	idx    int32
}

func less(a, b entry) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.phase != b.phase {
		return a.phase < b.phase
	}
	return a.seq < b.seq
}

// queue is the scheduler both engines share: events live by value in an
// arena of slots recycled through a free list, ordered by a value-typed
// 4-ary min-heap of (t, phase, seq) keys. Keys are unique, so the pop
// order is fixed by the keys alone. A slot is live exactly while the heap
// holds its index.
type queue struct {
	evs  []event
	free []int32
	heap []entry
	seq  uint64 // the next event's sequence number

	live []entry // sorted's reusable result
}

// push schedules e with the next sequence number and returns its slot.
func (q *queue) push(e event) int32 {
	e.seq, e.ckIdx = q.seq, -1
	q.seq++
	var i int32
	if n := len(q.free); n > 0 {
		i, q.free = q.free[n-1], q.free[:n-1]
		q.evs[i] = e
	} else {
		i = int32(len(q.evs))
		q.evs = append(q.evs, e)
	}
	q.heap = append(q.heap, entry{t: e.t, seq: e.seq, phase: e.phase, idx: i})
	q.up(len(q.heap) - 1)
	return i
}

// next reports the time of the earliest event, false when none is queued.
func (q *queue) next() (uint64, bool) {
	if len(q.heap) == 0 {
		return 0, false
	}
	return q.heap[0].t, true
}

// pop removes the earliest event from the queue, frees its slot and
// returns it.
func (q *queue) pop() event {
	h := q.heap
	n := len(h) - 1
	i := h[0].idx
	h[0] = h[n]
	q.heap = h[:n]
	q.down(0)
	e := q.evs[i]
	q.evs[i].fn, q.evs[i].ckIdx = nil, -1
	q.free = append(q.free, i)
	return e
}

func (q *queue) up(j int) {
	h, e := q.heap, q.heap[j]
	for j > 0 {
		p := (j - 1) / 4
		if !less(e, h[p]) {
			break
		}
		h[j], j = h[p], p
	}
	h[j] = e
}

func (q *queue) down(j int) {
	h := q.heap
	if j >= len(h) {
		return
	}
	e := h[j]
	for {
		c := 4*j + 1
		if c >= len(h) {
			break
		}
		m := c
		for k := c + 1; k < c+4 && k < len(h); k++ {
			if less(h[k], h[m]) {
				m = k
			}
		}
		if !less(h[m], e) {
			break
		}
		h[j], j = h[m], m
	}
	h[j] = e
}

// load replaces the queue's contents with ck's entries, entry i in slot i.
func (q *queue) load(ck *Checkpoint) {
	clear(q.evs)
	q.evs = slices.Grow(q.evs[:0], ck.QueuedEvents())[:ck.QueuedEvents()]
	for i := range q.evs {
		q.evs[i] = ck.event(i)
	}
	q.reheap()
}

// reload is load for the checkpoint the queue was last loaded from: a slot
// still holding its entry unconsumed and uncancelled is already equal to
// what load writes there, so only the others are rewritten, and every
// slot past the checkpoint's entries is dropped.
func (q *queue) reload(ck *Checkpoint) {
	n := ck.QueuedEvents()
	clear(q.evs[n:])
	q.evs = q.evs[:n]
	for i := range q.evs {
		if e := &q.evs[i]; e.ckIdx < 0 || e.cancelled {
			*e = ck.event(i)
		}
	}
	q.reheap()
}

// reheap makes every arena slot live and rebuilds the heap over them.
func (q *queue) reheap() {
	q.free, q.heap = q.free[:0], q.heap[:0]
	for i := range q.evs {
		e := &q.evs[i]
		q.heap = append(q.heap, entry{t: e.t, seq: e.seq, phase: e.phase, idx: int32(i)})
	}
	for j := (len(q.heap) - 2) / 4; j >= 0; j-- {
		q.down(j)
	}
}

// sorted returns the queued data events — cancelled entries and callbacks
// dropped — in queue order, each with its phase mapped through phaseOf
// when set. The result is reused by the next call.
func (q *queue) sorted(phaseOf func(*event) uint32) []entry {
	q.live = q.live[:0]
	for _, en := range q.heap {
		e := &q.evs[en.idx]
		if e.cancelled || e.kind == actFunc {
			continue
		}
		if phaseOf != nil {
			en.phase = phaseOf(e)
		}
		q.live = append(q.live, en)
	}
	slices.SortFunc(q.live, func(a, b entry) int {
		switch {
		case less(a, b):
			return -1
		case less(b, a):
			return 1
		}
		return 0
	})
	return q.live
}

// matches reports whether the queued data events equal ck's, entry for
// entry in queue order; sequence numbers and phases only order them.
func (q *queue) matches(ck *Checkpoint) bool {
	live := q.sorted(nil)
	if len(live) != ck.QueuedEvents() {
		return false
	}
	for i, en := range live {
		e, c := &q.evs[en.idx], ck.at(i)
		if e.t != c.t || e.kind != c.kind || int(e.net) != c.net || int(e.cellID) != c.cellID || e.val != c.val {
			return false
		}
	}
	return true
}
