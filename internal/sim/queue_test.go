package sim

import (
	"bytes"
	"slices"
	"testing"
)

// refEvent is one event of FuzzQueueOrder's reference: a plain slice of
// every queued event with the key the scheduler assigned it.
type refEvent struct {
	key       entry // idx is the event's slot
	cancelled bool
}

// FuzzQueueOrder is the scheduler's order oracle. It decodes the input
// into interleaved operations on an EventSim's queue — pushes at now+d
// (d = 0 and times colliding modulo the bucket cache's size included),
// pops, cancels, run entries, snapshots, full and delta restores, and
// pre-run pushes at the exact time of a queued (restored phase-1) event —
// and requires every pop to be the minimum (t, phase, seq) of a sorted
// reference over the same queued set, with the queue's invariants intact
// after every operation.
func FuzzQueueOrder(f *testing.F) {
	// Same-time pushes and times colliding modulo the cache, popped out,
	// then a push at the time of the bucket just drained.
	f.Add([]byte{0, 5, 0, 5, 0, 0, 0, 0x81, 0, 0x85, 0, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 1})
	// Two runs, a mid-run snapshot with events of both phases, a cancel,
	// a full restore with a pre-run push at a restored phase-1 time, a
	// delta restore over it, and the same again.
	f.Add([]byte{
		5, 0, 10, 0, 10, 1, 0, 0, 0, 5, 5, 0, 0, 0, 3, 0, 0x81, 3,
		1, 1, 2, 0, 6, 8, 0, 0, 5, 0, 0, 2, 2, 1, 1, 1, 1, 1, 1, 1,
		7, 8, 2, 1, 5, 0, 4, 1, 1, 1, 1, 1, 1, 1, 1, 7, 1, 1, 1, 1,
	})
	fl := counterDesign(f)
	f.Fuzz(func(t *testing.T, ops []byte) {
		s := NewEventSim(fl)
		// Start empty: drop the tie-cell and reset-state seeds.
		s.q = queue{}
		var ref []refEvent
		var ck *Checkpoint
		push := func(at uint64) {
			i := s.schedule(event{t: at, kind: actInput})
			ref = append(ref, refEvent{key: entry{t: at, seq: s.q.seq - 1, phase: s.phase, idx: i}})
		}
		restore := func(delta bool) {
			var err error
			if delta {
				err = s.RestoreDelta(ck)
			} else {
				err = s.Restore(ck)
			}
			if err != nil {
				t.Fatal(err)
			}
			ref = ref[:0]
			for i, q := range ck.evs {
				ref = append(ref, refEvent{key: entry{t: q.t, seq: q.seq, phase: q.phase, idx: int32(i)}})
			}
		}
		for len(ops) > 0 {
			op := ops[0]
			arg := byte(0)
			if len(ops) > 1 {
				arg = ops[1]
			}
			ops = ops[1:]
			switch op % 9 {
			case 0: // push at now + d; the high bit spreads d by the cache size
				d := uint64(arg & 0x7f)
				if arg&0x80 != 0 {
					d *= uint64(len(s.q.cache))
				}
				push(s.now + d)
				ops = ops[min(1, len(ops)):]
			case 1: // pop
				at, ok := s.q.next()
				if len(ref) == 0 {
					if ok {
						t.Fatalf("queue reports an event at %d, the reference is empty", at)
					}
					continue
				}
				m := 0
				for j := range ref {
					if less(ref[j].key, ref[m].key) {
						m = j
					}
				}
				want := ref[m]
				ref = slices.Delete(ref, m, m+1)
				e := s.q.pop()
				if !ok || at != want.key.t || e.key() != (entry{t: want.key.t, seq: want.key.seq, phase: want.key.phase}) || e.cancelled != want.cancelled {
					t.Fatalf("popped %+v (next %d, %v), want %+v", e, at, ok, want)
				}
				s.now = e.t
			case 2: // cancel a live event
				if len(ref) > 0 {
					r := &ref[int(arg)%len(ref)]
					if !r.cancelled {
						s.q.cancel(r.key.idx)
						r.cancelled = true
					}
				}
				ops = ops[min(1, len(ops)):]
			case 3, 4: // snapshot mid-stream, mid-run when a run was entered
				ck = s.Snapshot()
				if _, err := DecodeCheckpoint(bytes.NewReader(encode(t, ck))); err != nil {
					t.Fatalf("a snapshot does not decode: %v", err)
				}
			case 5: // enter a run: later pushes take the next phase
				s.phase++
				s.running = true
			case 6, 7: // full or delta restore
				if ck != nil {
					restore(op%9 == 7)
				}
			case 8: // pre-run push at the time of a queued phase-1 event
				for _, r := range ref {
					if r.key.phase == 1 {
						push(r.key.t)
						break
					}
				}
			}
			checkQueue(t, s)
		}
	})
}
