package sim

import (
	"fmt"
	"testing"

	"repro/internal/logic"
	"repro/internal/xrand"
)

// TestRestoreRunZeroAllocs pins the kernel's steady state: once an engine
// has run one faulty tail from a checkpoint, restoring the checkpoint and
// running the tail again allocates nothing.
func TestRestoreRunZeroAllocs(t *testing.T) {
	for name, mk := range engines(t) {
		t.Run(name, func(t *testing.T) {
			const last = 12
			prod := mk()
			setupCounter(t, prod, last*period)
			var ck *Checkpoint
			prod.At(4500, func() { ck = prod.Snapshot() })
			if err := prod.Run(last * period); err != nil {
				t.Fatal(err)
			}
			eng := mk()
			n1, ff0 := netID(t, eng.Flat(), "n1"), cellIDByPath(t, eng, "u_ff0")
			var err error
			tail := func() {
				if err = eng.Restore(ck); err != nil {
					return
				}
				eng.ScheduleForce(5100, n1, logic.L1)
				eng.ScheduleRelease(5700, n1)
				if err = eng.ScheduleFlip(5300, ff0); err == nil {
					err = eng.Run(last * period)
				}
			}
			tail() // warm: the arena and buffers reach their size
			allocs := testing.AllocsPerRun(20, tail)
			if err != nil {
				t.Fatal(err)
			}
			if eng.CellEvals() <= ck.Evals {
				t.Fatal("the tail evaluated no cells")
			}
			if allocs != 0 {
				t.Errorf("Restore + tail Run: %v allocations per run, want 0", allocs)
			}
		})
	}
}

// TestResetRunZeroAllocs pins a worker's cold start: once an engine has
// run one faulty replay from power-on, resetting it and replaying again,
// stimulus and fault included, allocates nothing.
func TestResetRunZeroAllocs(t *testing.T) {
	for name, mk := range engines(t) {
		t.Run(name, func(t *testing.T) {
			const last = 12
			eng := mk()
			n1, ff0 := netID(t, eng.Flat(), "n1"), cellIDByPath(t, eng, "u_ff0")
			var err error
			cold := func() {
				eng.Reset()
				setupCounter(t, eng, last*period)
				eng.ScheduleForce(5100, n1, logic.L1)
				eng.ScheduleRelease(5700, n1)
				if err = eng.ScheduleFlip(5300, ff0); err == nil {
					err = eng.Run(last * period)
				}
			}
			cold() // warm: the arena and buffers reach their size
			allocs := testing.AllocsPerRun(20, cold)
			if err != nil {
				t.Fatal(err)
			}
			if allocs != 0 {
				t.Errorf("Reset + cold Run: %v allocations per run, want 0", allocs)
			}
		})
	}
}

// checkQueue checks EventSim's scheduler invariants: the unconsumed run
// is sorted; every bucket chain holds one time in strictly ascending key
// order and ends at its tail; the bucket heap is ordered on its chains'
// head keys; bucket members and the free list partition the slots past
// the run; and every pending transition is a live, uncancelled
// transition of its own net — an unconsumed run slot or a bucket member,
// never a consumed or freed slot.
func checkQueue(t *testing.T, s *EventSim) {
	t.Helper()
	q := &s.q
	for i := q.cursor + 1; i < q.run; i++ {
		if !less(q.evs[i-1].key(), q.evs[i].key()) {
			t.Fatalf("run slots %d and %d are out of key order", i-1, i)
		}
	}
	live := make([]bool, len(q.evs))
	for i := q.cursor; i < q.run; i++ {
		live[i] = true
	}
	for j, h := range q.heap {
		if j > 0 && less(h, q.heap[(j-1)/2]) {
			t.Fatalf("bucket heap entry %d sorts before its parent", j)
		}
		b := q.bks[h.idx]
		if b.head < 0 || q.evs[b.head].key() != (entry{t: h.t, seq: h.seq, phase: h.phase}) {
			t.Fatalf("bucket %d's heap key %+v is not its head's", h.idx, h)
		}
		last := int32(-1)
		for i := b.head; i >= 0; last, i = i, q.evs[i].next {
			if i < q.run || live[i] {
				t.Fatalf("bucket %d chains slot %d, a run slot or already chained", h.idx, i)
			}
			live[i] = true
			if e := q.evs[i]; e.t != b.t || last >= 0 && !less(q.evs[last].key(), e.key()) {
				t.Fatalf("bucket %d (t=%d) chains slot %d out of order (%+v)", h.idx, b.t, i, e)
			}
		}
		if last != b.tail {
			t.Fatalf("bucket %d's tail is slot %d, its chain ends at %d", h.idx, b.tail, last)
		}
	}
	for nid, p := range s.pending {
		if p < 0 {
			continue
		}
		if e := q.evs[p]; !live[p] || e.cancelled || e.kind != actNet || int(e.net) != nid {
			t.Fatalf("net %d's pending slot %d is not its live transition (live %v, %+v)", nid, p, live[p], e)
		}
	}
	for _, i := range q.free {
		if i < q.run || live[i] {
			t.Fatalf("slot %d is free but a run slot or queued", i)
		}
		live[i] = true
	}
	for i := q.run; i < int32(len(q.evs)); i++ {
		if !live[i] {
			t.Fatalf("slot %d is neither queued nor free", i)
		}
	}
}

// TestEventQueueInvariants runs random circuits through glitching inputs,
// short forced pulses (whose cancellations free slots mid-run) and
// repeated restores of one engine, checking the arena invariants at every
// cycle.
func TestEventQueueInvariants(t *testing.T) {
	rng := xrand.New(7)
	const period, cycles = 4000, 10
	for trial := 0; trial < 20; trial++ {
		f := randomSyncDesign(rng)
		s := NewEventSim(f)
		for _, nid := range f.PIs {
			if f.Nets[nid].Name == "clk" {
				if err := DriveClock(s, nid, period, period, cycles*period); err != nil {
					t.Fatal(err)
				}
				continue
			}
			for k := uint64(0); k < cycles; k++ {
				if err := s.ScheduleInput(k*period+uint64(rng.Intn(period)), nid, logic.FromBool(rng.Intn(2) == 1)); err != nil {
					t.Fatal(err)
				}
			}
		}
		var ck *Checkpoint
		s.At(3*period+period/3, func() { ck = s.Snapshot() })
		for k := uint64(1); k <= cycles; k++ {
			s.At(k*period-1, func() { checkQueue(t, s) })
		}
		if err := s.Run(cycles * period); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := s.Restore(ck); err != nil {
				t.Fatal(err)
			}
			checkQueue(t, s)
			for p := 0; p < 4; p++ {
				c := f.Cells[rng.Intn(len(f.Cells))]
				at := ck.TimePS + uint64(rng.Intn(4*period))
				s.ScheduleForce(at, c.Out[0], logic.L1)
				s.ScheduleRelease(at+uint64(1+rng.Intn(30)), c.Out[0])
			}
			for k := ck.TimePS/period + 1; k <= cycles; k++ {
				s.At(k*period-1, func() { checkQueue(t, s) })
			}
			if err := s.Run(uint64(cycles-i) * period); err != nil {
				t.Fatal(err)
			}
			checkQueue(t, s)
		}
	}
}

// TestRestoreDeltaRevivesCancelledTransition takes a checkpoint while the
// flops' outputs are in flight, cancels one of those transitions with an
// upset, and requires restoring the same engine to bring it back: the
// engine matches the checkpoint again and replays a fresh restore's
// samples.
func TestRestoreDeltaRevivesCancelledTransition(t *testing.T) {
	const last = 12
	f := counterDesign(t)
	prod := NewEventSim(f)
	setupCounter(t, prod, last*period)
	var ck *Checkpoint
	prod.At(5*period+10, func() { ck = prod.Snapshot() })
	if err := prod.Run(last * period); err != nil {
		t.Fatal(err)
	}
	if ck.pendingIdx[netID(t, f, "q0")] < 0 {
		t.Fatal("no transition of q0 in flight at the checkpoint")
	}
	ref := NewEventSim(f)
	if err := ref.Restore(ck); err != nil {
		t.Fatal(err)
	}
	want := sampleInto(t, ref, 6, last)
	if err := ref.Run(last * period); err != nil {
		t.Fatal(err)
	}

	eng := NewEventSim(f)
	if err := eng.Restore(ck); err != nil {
		t.Fatal(err)
	}
	if err := eng.ScheduleFlip(5*period+20, cellIDByPath(t, eng, "u_ff0")); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(5*period + 30); err != nil {
		t.Fatal(err)
	}
	if p := eng.pending[netID(t, f, "q0")]; p >= 0 {
		t.Fatalf("the upset left q0's transition in flight (slot %d)", p)
	}
	if err := eng.Restore(ck); err != nil {
		t.Fatal(err)
	}
	if !eng.MatchesCheckpoint(ck) {
		t.Fatal("re-restored engine does not match the checkpoint")
	}
	checkQueue(t, eng)
	got := sampleInto(t, eng, 6, last)
	if err := eng.Run(last * period); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(*got) != fmt.Sprint(*want) {
		t.Fatalf("samples after re-restoring %v, after a fresh restore %v", *got, *want)
	}
}
