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
	// next is the following slot of a pushed event's bucket chain, -1 at
	// the chain's tail; restored events leave it unused.
	next int32
	fn   func()
}

// entry is an event's order key (t, phase, seq) with a slot or bucket
// index alongside.
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

// key is e's order key, with idx unset.
func (e *event) key() entry { return entry{t: e.t, seq: e.seq, phase: e.phase} }

// bucket is a FIFO chain of pushed events of one time, head to tail in
// key order; head is -1 once the bucket is drained.
type bucket struct {
	t          uint64
	head, tail int32
}

// queue is the scheduler both engines share. Events live by value in an
// arena and pop in ascending (t, phase, seq) key order; keys are unique,
// so the pop order is fixed by the keys alone. Two sorted sources hold
// them, merged at every pop:
//
//   - the run: slots [0, run), the last-loaded checkpoint's entries in list
//     order, which is key order. A cursor reads it in place; a consumed
//     run slot is neither freed nor reused.
//   - the buckets: every event pushed since the load, in slots past the
//     run recycled through a free list. Each push takes a larger key than
//     every earlier one (seq strictly increases, EventSim's phase never
//     decreases between restores), so one time's pushes chain into a FIFO
//     already in key order, and a small heap orders the buckets by their
//     head's key. A direct-mapped cache finds a push's bucket by time; a
//     miss opens a new bucket, which stays exact because every key in it
//     exceeds every key in the older bucket of that time.
type queue struct {
	evs    []event
	free   []int32
	run    int32 // slots [0, run) hold the loaded checkpoint's entries
	cursor int32 // the run's first unconsumed slot
	seq    uint64

	bks   []bucket
	bfree []int32
	heap  []entry // the live buckets, keyed by their head event
	cache [256]int32

	live []entry // sorted's reusable result
}

// push schedules e with the next sequence number and returns its slot.
func (q *queue) push(e event) int32 {
	e.seq, e.next = q.seq, -1
	q.seq++
	var i int32
	if n := len(q.free); n > 0 {
		i, q.free = q.free[n-1], q.free[:n-1]
		q.evs[i] = e
	} else {
		i = int32(len(q.evs))
		q.evs = append(q.evs, e)
	}
	c := &q.cache[e.t%uint64(len(q.cache))]
	if b := *c; int(b) < len(q.bks) && q.bks[b].t == e.t && q.bks[b].head >= 0 {
		q.evs[q.bks[b].tail].next = i
		q.bks[b].tail = i
		return i
	}
	var b int32
	if n := len(q.bfree); n > 0 {
		b, q.bfree = q.bfree[n-1], q.bfree[:n-1]
	} else {
		b = int32(len(q.bks))
		q.bks = append(q.bks, bucket{})
	}
	q.bks[b] = bucket{t: e.t, head: i, tail: i}
	*c = b
	en := e.key()
	en.idx = b
	q.heap = append(q.heap, en)
	q.up(len(q.heap) - 1)
	return i
}

// cancel marks the event in slot i cancelled: it stays queued and pops
// as a no-op.
func (q *queue) cancel(i int32) { q.evs[i].cancelled = true }

// runFirst reports whether the run's head is the earliest queued event.
func (q *queue) runFirst() bool {
	return q.cursor < q.run && (len(q.heap) == 0 || less(q.evs[q.cursor].key(), q.heap[0]))
}

// next reports the time of the earliest event, false when none is queued.
func (q *queue) next() (uint64, bool) {
	if q.runFirst() {
		return q.evs[q.cursor].t, true
	}
	if len(q.heap) == 0 {
		return 0, false
	}
	return q.heap[0].t, true
}

// pop removes the earliest event from the queue and returns it. A pushed
// event's slot is freed; a run slot is only stepped past.
func (q *queue) pop() event {
	if q.runFirst() {
		q.cursor++
		return q.evs[q.cursor-1]
	}
	top := &q.heap[0]
	b := &q.bks[top.idx]
	i := b.head
	e := q.evs[i]
	q.evs[i].fn = nil
	q.free = append(q.free, i)
	if b.head = e.next; b.head >= 0 {
		nx := &q.evs[b.head]
		top.phase, top.seq = nx.phase, nx.seq
	} else {
		q.bfree = append(q.bfree, top.idx)
		n := len(q.heap) - 1
		q.heap[0] = q.heap[n]
		q.heap = q.heap[:n]
	}
	q.down(0)
	return e
}

func (q *queue) up(j int) {
	h, e := q.heap, q.heap[j]
	for j > 0 {
		p := (j - 1) / 2
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
		m := 2*j + 1
		if m >= len(h) {
			break
		}
		if m+1 < len(h) && less(h[m+1], h[m]) {
			m++
		}
		if !less(h[m], e) {
			break
		}
		h[j], j = h[m], m
	}
	h[j] = e
}

// load replaces the queue's contents with ck's entries, entry i in run
// slot i, and drops every pushed event and bucket. Slots past the old run
// held pushed events and are cleared, so no callback outlives its run.
func (q *queue) load(ck *Checkpoint) {
	clear(q.evs[q.run:])
	q.evs = append(q.evs[:0], ck.evs...)
	q.run, q.cursor = int32(len(q.evs)), 0
	q.free, q.bks, q.bfree, q.heap = q.free[:0], q.bks[:0], q.bfree[:0], q.heap[:0]
}

// sorted returns the queued data events — cancelled entries and callbacks
// dropped — in queue order, each with its phase mapped through phaseOf
// when set. The result is reused by the next call.
func (q *queue) sorted(phaseOf func(*event) uint32) []entry {
	q.live = q.live[:0]
	add := func(i int32) {
		e := &q.evs[i]
		if e.cancelled || e.kind == actFunc {
			return
		}
		en := e.key()
		en.idx = i
		if phaseOf != nil {
			en.phase = phaseOf(e)
		}
		q.live = append(q.live, en)
	}
	for i := q.cursor; i < q.run; i++ {
		add(i)
	}
	for _, h := range q.heap {
		for i := q.bks[h.idx].head; i >= 0; i = q.evs[i].next {
			add(i)
		}
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
	if len(live) != len(ck.evs) {
		return false
	}
	for i, en := range live {
		e, c := &q.evs[en.idx], &ck.evs[i]
		if e.t != c.t || e.kind != c.kind || e.net != c.net || e.cellID != c.cellID || e.val != c.val {
			return false
		}
	}
	return true
}
