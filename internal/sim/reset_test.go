package sim

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/logic"
	"repro/internal/vcd"
	"repro/internal/xrand"
)

// TestResetMatchesNew runs an engine partway with a flip, a force still
// held, a callback and a value-change observer, resets it, and drives it
// as a fresh engine is driven: the same stimulus, a VCD writer on every
// net, and a snapshot taken inside the run. From there the two must agree
// at every step: clock, eval counter, values, forces, states, queued data
// events and the phases CopyFrom would give those; then on the snapshot's encoding and on the dumped bytes.
// The callbacks registered before Reset must never fire after it.
func TestResetMatchesNew(t *testing.T) {
	for seed := uint64(1); seed <= 16; seed++ {
		for _, kind := range []EngineKind{KindEvent, KindLevel} {
			resetCase(t, kind, seed)
		}
	}
}

func resetCase(t *testing.T, kind EngineKind, seed uint64) {
	rng := xrand.New(seed)
	fl := randomSyncDesignOf(rng, []string{"DFFRX1", "DFFEX1", "DFFX1", "SRAMBITX1"},
		"INVX1", "NAND2X1", "XOR2X1", "MUX2X1", "AOI21X1", "TIEHI", "TIELO")
	const period, cycles = 4000, 10
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
			for k := range cycles {
				tm := uint64(k)*period + uint64(rng.Intn(period))
				sts = append(sts, Stimulus{Time: tm, Net: n.ID, Val: logic.FromBool(rng.Intn(2) == 1)})
			}
		}
	}
	nets := make([]int, len(fl.Nets))
	for i := range nets {
		nets[i] = i
	}
	// drive readies e the way a campaign's cold start does, with a dump of
	// every net and a snapshot inside the run.
	drive := func(e Engine) (*bytes.Buffer, *vcd.Writer, **Checkpoint) {
		t.Helper()
		var buf bytes.Buffer
		w := vcd.NewWriter(&buf)
		if err := AttachVCD(e, w, nets); err != nil {
			t.Fatal(err)
		}
		if err := DriveClock(e, clk, period, period, end); err != nil {
			t.Fatal(err)
		}
		if err := ApplyStimuli(e, sts); err != nil {
			t.Fatal(err)
		}
		ck := new(*Checkpoint)
		e.At(4*period+1, func() { *ck = e.Snapshot() })
		return &buf, w, ck
	}

	mk := func() Engine {
		e, err := New(kind, fl)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	reset := mk()
	var seqs []int
	for _, c := range fl.Cells {
		if c.Def.IsSequential() {
			seqs = append(seqs, c.ID)
		}
	}
	drive(reset)
	stale := 0
	var log *ChangeLog
	if es, ok := reset.(*EventSim); ok {
		log = es.RecordChanges()
	}
	if err := reset.ScheduleFlip(uint64(3*period+rng.Intn(period)), seqs[rng.Intn(len(seqs))]); err != nil {
		t.Fatal(err)
	}
	cut := uint64(5*period + rng.Intn(period))
	held := rng.Intn(len(fl.Nets))
	reset.ScheduleForce(cut-1-uint64(rng.Intn(period)), held, logic.FromBool(rng.Intn(2) == 1))
	reset.ScheduleRelease(cut+period, held)
	reset.At(cut+1, func() { stale++ })
	reset.OnNetChange(held, func(uint64, logic.V) { stale++ })
	if err := reset.Run(cut); err != nil {
		t.Fatal(err)
	}
	logged := 0
	if log != nil {
		logged = log.Len()
	}
	stale = 0
	reset.Reset()

	fresh := mk()
	bufs := [2]*bytes.Buffer{}
	ws := [2]*vcd.Writer{}
	cks := [2]**Checkpoint{}
	for i, e := range []Engine{reset, fresh} {
		bufs[i], ws[i], cks[i] = drive(e)
	}
	for _, step := range []uint64{0, 1, period / 2, 3 * period, cut, cut + 1, cut + period + 1, end} {
		for _, e := range []Engine{reset, fresh} {
			if err := e.Run(step); err != nil {
				t.Fatal(err)
			}
		}
		if reset.Now() != fresh.Now() || reset.CellEvals() != fresh.CellEvals() {
			t.Fatalf("%s seed %d at %dps: reset engine at %dps with %d evals, fresh one at %dps with %d",
				kind, seed, step, reset.Now(), reset.CellEvals(), fresh.Now(), fresh.CellEvals())
		}
		for nid := range fl.Nets {
			if reset.Value(nid) != fresh.Value(nid) {
				t.Fatalf("%s seed %d at %dps: net %s is %v reset, %v fresh", kind, seed, step, fl.Nets[nid].Name, reset.Value(nid), fresh.Value(nid))
			}
		}
		for _, cid := range seqs {
			a, _ := reset.State(cid)
			b, _ := fresh.State(cid)
			if a != b {
				t.Fatalf("%s seed %d at %dps: cell %s holds %v reset, %v fresh", kind, seed, step, fl.Cells[cid].Path, a, b)
			}
		}
		if !slices.Equal(coreOf(reset).forced, coreOf(fresh).forced) {
			t.Fatalf("%s seed %d at %dps: forces differ", kind, seed, step)
		}
		if qa, qb := queuedOf(reset), queuedOf(fresh); !slices.Equal(qa, qb) {
			t.Fatalf("%s seed %d at %dps: queues differ:\nreset %+v\nfresh %+v", kind, seed, step, qa, qb)
		}
		if pa, pb := forkPhases(reset), forkPhases(fresh); !slices.Equal(pa, pb) {
			t.Fatalf("%s seed %d at %dps: a copy would order the queues differently: reset %v, fresh %v", kind, seed, step, pa, pb)
		}
	}
	if stale != 0 {
		t.Fatalf("%s seed %d: %d callbacks registered before Reset fired after it", kind, seed, stale)
	}
	if log != nil && log.Len() != logged {
		t.Fatalf("%s seed %d: the change log attached before Reset grew after it", kind, seed)
	}
	var snaps [2]bytes.Buffer
	for i := range ws {
		if err := ws[i].Close(end); err != nil {
			t.Fatal(err)
		}
		if *cks[i] == nil {
			t.Fatalf("%s seed %d: snapshot callback never fired", kind, seed)
		}
		if err := EncodeCheckpoint(&snaps[i], *cks[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(snaps[0].Bytes(), snaps[1].Bytes()) {
		t.Fatalf("%s seed %d: a snapshot taken after Reset encodes differently from a fresh engine's", kind, seed)
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
		t.Fatalf("%s seed %d: dumps differ:\nreset\n%s\nfresh\n%s", kind, seed, bufs[0], bufs[1])
	}
}

func coreOf(e Engine) *core {
	switch s := e.(type) {
	case *EventSim:
		return &s.core
	case *LevelSim:
		return &s.core
	}
	return nil
}

// queuedOf is e's queued data events in pop order.
func queuedOf(e Engine) []queuedEvent {
	c := coreOf(e)
	var out []queuedEvent
	for _, en := range c.q.ordered() {
		ev := &c.q.evs[en.idx]
		out = append(out, queuedEvent{ev.t, ev.kind, ev.net, ev.cellID, ev.val})
	}
	return out
}

// forkPhases is the phase CopyFrom would give each of e's queued data
// events, in pop order; nil on LevelSim.
func forkPhases(e Engine) []uint32 {
	es, ok := e.(*EventSim)
	if !ok {
		return nil
	}
	var out []uint32
	for _, en := range es.q.ordered() {
		out = append(out, forkPhase(&es.q.evs[en.idx]))
	}
	return out
}
