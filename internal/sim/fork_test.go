package sim

import (
	"slices"
	"testing"

	"repro/internal/logic"
	"repro/internal/xrand"
)

// forkCase runs one fork trial on a random synchronous circuit of enable
// flops, reset flops and memory bits under random stimulus. A golden run
// snapshots a mid-run checkpoint inside its Run. Engine A restores it and
// advances in a few Runs to t−1, the way a golden cursor advances through
// a batch's strikes; engine B is A's CopyFrom. Engine C restores the same
// checkpoint, the restore-and-replay start. B and C then take the same
// fault at t — a flip, a force and release, or an SET read and forced by
// a callback at t as the campaign applies one — and C runs to t−1. From
// there both step to the end, and after every step their values, driven
// values, forces, states, queued data events (in pop order) and eval
// counters must be equal, as must what every callback read.
//
// On even seeds t is the instant of an inertial transition A has in
// flight just after a clock edge, and the fault strikes that transition's
// own net or driver: the fault must order ahead of it, as in a cold run. forkCase reports whether
// the trial struck such a transition.
func forkCase(t *testing.T, seed uint64) (atPending bool) {
	rng := xrand.New(seed)
	fl := randomSyncDesignOf(rng, []string{"DFFRX1", "DFFEX1", "SRAMBITX1"})
	const period, cycles = 4000, 12
	const end = cycles * period
	var sts []Stimulus
	var clk int
	for _, n := range fl.Nets {
		switch {
		case !n.IsPI:
		case n.Name == "clk":
			clk = n.ID
		case n.Name == "rstn":
			sts = append(sts, Stimulus{Time: 0, Net: n.ID, Val: logic.L0}, Stimulus{Time: period / 2, Net: n.ID, Val: logic.L1})
		default:
			sts = append(sts, Stimulus{Time: 0, Net: n.ID, Val: logic.FromBool(rng.Intn(2) == 1)})
			for k := 1; k < cycles; k++ {
				if rng.Intn(2) == 0 {
					tm := uint64(k)*period + uint64(rng.Intn(period))
					sts = append(sts, Stimulus{Time: tm, Net: n.ID, Val: logic.FromBool(rng.Intn(2) == 1)})
				}
			}
		}
	}
	golden := NewEventSim(fl)
	if err := DriveClock(golden, clk, period, period, end); err != nil {
		t.Fatal(err)
	}
	if err := ApplyStimuli(golden, sts); err != nil {
		t.Fatal(err)
	}
	var ck *Checkpoint
	golden.At(uint64(1+rng.Intn(cycles/2))*period+1, func() { ck = golden.Snapshot() })
	if err := golden.Run(end); err != nil {
		t.Fatal(err)
	}

	a := NewEventSim(fl)
	if err := a.Restore(ck); err != nil {
		t.Fatal(err)
	}
	at := ck.TimePS + 1 + uint64(rng.Intn(2*period))
	if seed%2 == 0 {
		at = ck.TimePS - 1 + uint64(1+rng.Intn(2))*period // a clock edge
	}
	if err := a.Run(at); err != nil {
		t.Fatal(err)
	}
	tm := at + 1 + uint64(rng.Intn(period))
	net := rng.Intn(len(fl.Nets))
	if seed%2 == 0 {
		var inFlight []int
		for nid, p := range a.pending {
			if p >= 0 {
				inFlight = append(inFlight, nid)
			}
		}
		if len(inFlight) > 0 {
			net = inFlight[rng.Intn(len(inFlight))]
			tm, atPending = a.q.evs[a.pending[net]].t, true
		}
	}
	for _, step := range []uint64{at + (tm-1-at)/2, tm - 1} {
		if err := a.Run(step); err != nil {
			t.Fatal(err)
		}
	}
	b := NewEventSim(fl)
	if err := b.CopyFrom(a); err != nil {
		t.Fatal(err)
	}
	checkQueue(t, b)
	c := NewEventSim(fl)
	if err := c.Restore(ck); err != nil {
		t.Fatal(err)
	}

	// The fault, the same on B and C.
	kind := rng.Intn(3)
	victim := fl.Nets[net].Driver
	if kind == 0 && (victim < 0 || !fl.Cells[victim].Def.IsSequential()) {
		kind = 1
	}
	width := uint64(1 + rng.Intn(300))
	force := logic.FromBool(rng.Intn(2) == 1)
	var reads [2][]monitorChange
	watched := rng.Intn(len(fl.Nets))
	for i, e := range []*EventSim{b, c} {
		switch kind {
		case 0:
			if err := e.ScheduleFlip(tm, victim); err != nil {
				t.Fatal(err)
			}
		case 1:
			e.ScheduleForce(tm, net, force)
			e.ScheduleRelease(tm+width, net)
		case 2:
			e.At(tm, func() {
				v := e.Value(net)
				reads[i] = append(reads[i], monitorChange{tm, net, v})
				e.ScheduleForce(tm+1, net, v.Not())
				e.ScheduleRelease(tm+1+width, net)
			})
		}
	}
	if err := c.Run(tm - 1); err != nil {
		t.Fatal(err)
	}
	// From the fork on, an observer on a random net reads every change,
	// as a VCD writer would.
	for i, e := range []*EventSim{b, c} {
		e.OnNetChange(watched, func(t uint64, v logic.V) { reads[i] = append(reads[i], monitorChange{t, watched, v}) })
	}

	steps := []uint64{tm - 1, tm, tm + 1}
	for range 12 {
		steps = append(steps, tm+1+uint64(rng.Intn(int(end-tm))))
	}
	slices.Sort(steps)
	for _, step := range slices.Compact(append(steps, end)) {
		if err := b.Run(step); err != nil {
			t.Fatal(err)
		}
		if err := c.Run(step); err != nil {
			t.Fatal(err)
		}
		if b.Now() != c.Now() || b.CellEvals() != c.CellEvals() {
			t.Fatalf("seed %d at %dps: fork at %dps (%d evals), restore and replay at %dps (%d evals)", seed, step, b.Now(), b.CellEvals(), c.Now(), c.CellEvals())
		}
		for nid := range fl.Nets {
			if b.cur[nid] != c.cur[nid] || b.driven[nid] != c.driven[nid] || b.forced[nid] != c.forced[nid] {
				t.Fatalf("seed %d at %dps: net %s is %v/%v/%t forked, %v/%v/%t replayed (fault kind %d at %dps on %s)", seed, step, fl.Nets[nid].Name,
					b.cur[nid], b.driven[nid], b.forced[nid], c.cur[nid], c.driven[nid], c.forced[nid], kind, tm, fl.Nets[net].Name)
			}
		}
		if !slices.Equal(b.state, c.state) {
			t.Fatalf("seed %d at %dps: states differ: forked %v, replayed %v", seed, step, b.state, c.state)
		}
		if qb, qc := queuedData(b), queuedData(c); !slices.Equal(qb, qc) {
			t.Fatalf("seed %d at %dps: queues differ:\nforked   %+v\nreplayed %+v", seed, step, qb, qc)
		}
		if !slices.Equal(reads[0], reads[1]) {
			t.Fatalf("seed %d at %dps: callbacks read %v forked, %v replayed", seed, step, reads[0], reads[1])
		}
	}
	return atPending
}

// queuedEvent is a queued data event without what only orders it.
type queuedEvent struct {
	t           uint64
	kind        actKind
	net, cellID int32
	val         logic.V
}

// queuedData is e's queued data events in pop order.
func queuedData(e *EventSim) []queuedEvent {
	var out []queuedEvent
	for _, en := range e.q.ordered() {
		ev := &e.q.evs[en.idx]
		out = append(out, queuedEvent{ev.t, ev.kind, ev.net, ev.cellID, ev.val})
	}
	return out
}

// FuzzForkAgrees is the golden-cursor fork's oracle: see forkCase.
func FuzzForkAgrees(f *testing.F) {
	for seed := uint64(1); seed <= 64; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) { forkCase(t, seed) })
}

// TestForkAgreesFires pins that forkCase is not vacuous: over the fuzz
// seeds, some faults strike a transition in flight at their instant.
func TestForkAgreesFires(t *testing.T) {
	n := 0
	for seed := uint64(1); seed <= 64; seed++ {
		if forkCase(t, seed) {
			n++
		}
	}
	t.Logf("%d of 64 trials struck an in-flight transition", n)
	if n == 0 {
		t.Fatal("no trial struck an in-flight transition at its instant")
	}
}

// TestCopyFromZeroAllocs pins the fork's steady state: once the copy's
// arena has grown, restoring a cursor, advancing it and copying it
// allocates nothing.
func TestCopyFromZeroAllocs(t *testing.T) {
	mk := engines(t)["EventSim"]
	prod := mk()
	setupCounter(t, prod, 12*period)
	var ck *Checkpoint
	prod.At(4500, func() { ck = prod.Snapshot() })
	if err := prod.Run(12 * period); err != nil {
		t.Fatal(err)
	}
	cursor, eng := mk().(*EventSim), mk().(*EventSim)
	var err error
	fork := func() {
		if err = cursor.Restore(ck); err == nil {
			if err = cursor.Run(5199); err == nil {
				err = eng.CopyFrom(cursor)
			}
		}
	}
	fork() // warm: the arena reaches its size
	allocs := testing.AllocsPerRun(20, fork)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Now() != 5199 || eng.CellEvals() <= ck.Evals || len(queuedData(eng)) == 0 {
		t.Fatalf("the copy is at %dps with %d evals and %d queued events", eng.Now(), eng.CellEvals(), len(queuedData(eng)))
	}
	if allocs != 0 {
		t.Errorf("Restore + Run + CopyFrom: %v allocations per fork, want 0", allocs)
	}
}
