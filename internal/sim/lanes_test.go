package sim

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/cell"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/xrand"
)

// TestLaneFormulasMatchLUT checks every library cell's lane formula
// exhaustively: a combinational cell's outputs against its LUT over all
// 2^k known input vectors, a storage cell's next state against
// AsyncState/NextState over all known inputs, states and last clocks.
// Vector j is lane j, so one evaluation covers them all.
func TestLaneFormulasMatchLUT(t *testing.T) {
	for _, name := range cell.Names() {
		def := cell.MustLookup(name)
		k := len(def.Inputs)
		// Nets 0..k-1 are the inputs, k and k+1 the ones and zero words,
		// then the outputs; extra (in lanes) are state and last clock.
		extra := 0
		if def.IsSequential() {
			extra = 2
		}
		if k+extra > 6 {
			t.Fatalf("%s: %d inputs do not fit one word", name, k)
		}
		vectors := 1 << (k + extra)
		ins := make([]int32, k)
		v := make([]uint64, k+4)
		v[k] = ^uint64(0)
		bit := func(vec, i int) uint64 { return uint64(vec >> i & 1) }
		lanes := make([]uint64, k+extra)
		for i := range lanes {
			for vec := 0; vec < vectors; vec++ {
				lanes[i] |= bit(vec, i) << vec
			}
		}
		for i := range ins {
			ins[i] = int32(i)
			v[i] = lanes[i]
		}
		outs := []int32{int32(k + 2), int32(k + 3)}[:len(def.Outputs)]
		in := make([]logic.V, k)
		for vec := 0; vec < vectors; vec++ {
			for i := range in {
				in[i] = logic.V(bit(vec, i))
			}
			if !def.IsSequential() {
				g, err := newLaneGate(def, ins, outs, int32(k+1))
				if err != nil {
					t.Fatal(err)
				}
				y, y1 := g.eval(v)
				lut := def.LUT[pack(in)]
				for j, w := range []uint64{y, y1}[:len(def.Outputs)] {
					if want := uint64(lut >> (2 * j) & 3); w>>vec&1 != want {
						t.Fatalf("%s output %d at inputs %v: lane formula %d, LUT %d", name, j, in, w>>vec&1, want)
					}
				}
				if len(def.Outputs) == 1 && y1 != 0 {
					t.Fatalf("%s: single-output formula writes %x to its zero word", name, y1)
				}
				continue
			}
			sc := newLaneSeq(def, 0, ins, outs, int32(k))
			state, prev := logic.V(bit(vec, k)), logic.V(bit(vec, k+1))
			next := logic.V(sc.next(v, lanes[k], lanes[k+1]) >> vec & 1)
			want := state
			if av, active := def.AsyncState(in); active {
				want = av
			} else if prev == logic.L0 && in[def.Seq.ClockPin] == logic.L1 {
				want = def.NextState(state, in)
			}
			if next != want {
				t.Fatalf("%s at inputs %v, state %v, last clock %v: lane next %v, want %v", name, in, state, prev, next, want)
			}
		}
	}
}

// pack is a LUT index: value i in bits 2i..2i+1.
func pack(in []logic.V) int {
	idx := 0
	for i, v := range in {
		idx |= int(v) << (2 * i)
	}
	return idx
}

// unsettledDesign is a loop through an async reset: u_ff0 clocks on its
// own QN and samples q1; u_ff1's clock, reset and data are all
// AND2(q0, qn1). From the settled power-up state (u_ff1 cleared by its
// reset) flipping u_ff0 starts a clock-then-reset oscillation in u_ff1.
func unsettledDesign(t testing.TB) *netlist.Flat {
	t.Helper()
	d := netlist.NewDesign("unsettled")
	m := netlist.NewModule("unsettled")
	for _, w := range []string{"q0", "qn0", "q1", "qn1", "a"} {
		m.AddWire(w)
	}
	m.AddInstance("u_ff0", "DFFX1", map[string]string{"D": "q1", "CK": "qn0", "Q": "q0", "QN": "qn0"})
	m.AddInstance("u_ff1", "DFFRX1", map[string]string{"D": "a", "CK": "a", "RN": "a", "Q": "q1", "QN": "qn1"})
	m.AddInstance("u_and", "AND2X1", map[string]string{"A": "q0", "B": "qn1", "Y": "a"})
	d.AddModule(m)
	d.Top = "unsettled"
	f, err := netlist.Flatten(d)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestFlipStateReportsUnsettled pins that LevelSim.FlipState returns the
// settle's error instead of dropping it, and that a lane pass given the
// same flip in one lane fails with the same error.
func TestFlipStateReportsUnsettled(t *testing.T) {
	f := unsettledDesign(t)
	s := NewLevelSim(f)
	s.At(0, func() {})
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	ck := s.Snapshot()
	ff0 := f.CellIndex["u_ff0"]
	if err := s.FlipState(ff0); !errors.Is(err, errUnsettled) {
		t.Fatalf("FlipState: %v, want %v", err, errUnsettled)
	}

	ls, err := NewLaneSim(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.Restore(ck); err != nil {
		t.Fatalf("settled power-up state: %v", err)
	}
	if err := ls.ScheduleFlip(1, ff0, 5); err != nil {
		t.Fatal(err)
	}
	if err := ls.Run(1); !errors.Is(err, errUnsettled) {
		t.Fatalf("lane Run: %v, want %v", err, errUnsettled)
	}
}

// TestLaneRestoreRefusesUnknown pins the eligibility rule: a checkpoint
// holding an X, or a queued action other than a known input change, is
// refused with errNotTwoValued.
func TestLaneRestoreRefusesUnknown(t *testing.T) {
	f := counterDesign(t)
	s := NewLevelSim(f)
	setupCounter(t, s, 8*period)
	if err := s.Run(2*period + 1); err != nil {
		t.Fatal(err)
	}
	ck := s.Snapshot()
	ls, err := NewLaneSim(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.Restore(ck); err != nil {
		t.Fatalf("known counter state: %v", err)
	}
	q0 := netID(t, f, "q0")
	for name, mutate := range map[string]func(*Checkpoint){
		"X net":   func(c *Checkpoint) { c.netPlanes[0][q0] = logic.X },
		"Z input": func(c *Checkpoint) { c.evs[0].val = logic.Z },
		"flip":    func(c *Checkpoint) { c.evs[0].kind, c.evs[0].cellID = actFlip, int32(f.CellIndex["u_ff0"]) },
	} {
		bad := *ck
		bad.netPlanes = clonePlanes(ck.netPlanes)
		bad.evs = slices.Clone(ck.evs)
		mutate(&bad)
		if err := ls.Restore(&bad); !errors.Is(err, errNotTwoValued) {
			t.Errorf("%s: Restore = %v, want errNotTwoValued", name, err)
		}
	}
}

// TestLaneDiff pins Diff on every plane it compares, with lane 0 at 0 and
// at 1: a lane that differs from lane 0 on one net, one state or one
// clock-edge memory alone is named, and no other lane is.
func TestLaneDiff(t *testing.T) {
	f := counterDesign(t)
	ls, err := NewLaneSim(f)
	if err != nil {
		t.Fatal(err)
	}
	q0, ff0 := netID(t, f, "q0"), f.CellIndex["u_ff0"]
	planes := map[string]*uint64{"net": &ls.net[q0], "state": &ls.state[ff0], "last clock": &ls.prevClk[ff0]}
	for name, plane := range planes {
		for _, lane0 := range []uint64{0, ^uint64(0)} {
			for _, p := range planes {
				*p = lane0
			}
			*plane ^= 1 << 9
			if got := ls.Diff(); got != 1<<9 {
				t.Errorf("%s, lane 0 at %d: Diff %b, want lane 9 alone", name, lane0&1, got)
			}
		}
		for _, p := range planes {
			*p = 0
		}
	}
}

// lane1 is lane's value in word w.
func lane1(w uint64, lane int) logic.V { return logic.V(w >> lane & 1) }

// FuzzLaneVsScalar is the lane engine's oracle. On a random synchronous
// circuit of every combinational library cell, under random stimulus, it restores a mid-run LevelSim checkpoint
// into a LaneSim and into one LevelSim per lane, gives every lane but 0 a
// random flop flip at a random time (some on a stimulus instant), and
// after every step requires each lane's nets, states and last clocks to
// equal its LevelSim's, Diff to name exactly the lanes that differ from
// lane 0, and each lane's eval count to equal its LevelSim's.
func FuzzLaneVsScalar(f *testing.F) {
	for seed := uint64(1); seed <= 64; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		rng := xrand.New(seed)
		var comb []string
		for _, name := range cell.Names() {
			if !cell.MustLookup(name).IsSequential() {
				comb = append(comb, name)
			}
		}
		fl := randomSyncDesign(rng, comb...)
		const period, cycles = 4000, 10
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
		golden := NewLevelSim(fl)
		if err := DriveClock(golden, clk, period, period, cycles*period); err != nil {
			t.Fatal(err)
		}
		if err := ApplyStimuli(golden, sts); err != nil {
			t.Fatal(err)
		}
		start := uint64(1+rng.Intn(3))*period + 1
		if err := golden.Run(start); err != nil {
			t.Fatal(err)
		}
		ck := golden.Snapshot()
		ls, err := NewLaneSim(fl)
		if err != nil {
			t.Fatal(err)
		}
		if err := ls.Restore(ck); err != nil {
			t.Fatalf("restore: %v", err)
		}

		var times []uint64
		for _, e := range ck.evs {
			times = append(times, e.t)
		}
		seqs := fl.SequentialCells()
		scalars := make([]*LevelSim, 1+rng.Intn(Lanes))
		for lane := range scalars {
			scalars[lane] = NewLevelSim(fl)
			if err := scalars[lane].Restore(ck); err != nil {
				t.Fatal(err)
			}
			if lane == 0 {
				continue
			}
			tm := start + 1 + uint64(rng.Intn(cycles*period-int(start)))
			if rng.Intn(4) == 0 {
				tm = times[rng.Intn(len(times))]
			}
			victim := seqs[rng.Intn(len(seqs))]
			if err := scalars[lane].ScheduleFlip(tm, victim); err != nil {
				t.Fatal(err)
			}
			if err := ls.ScheduleFlip(tm, victim, lane); err != nil {
				t.Fatal(err)
			}
			times = append(times, tm)
		}
		slices.Sort(times)
		for _, tm := range slices.Compact(times) {
			var want error
			for _, s := range scalars {
				if err := s.Run(tm); err != nil && want == nil {
					want = err
				}
			}
			err := ls.Run(tm)
			if errors.Is(err, errSweepCap) {
				return // the lanes' caller runs these on LevelSim
			}
			if (err == nil) != (want == nil) || err != nil && err.Error() != want.Error() {
				t.Fatalf("step %dps: lane error %v, scalar error %v", tm, err, want)
			}
			if err != nil {
				return
			}
			var differ uint64
			for lane, s := range scalars {
				for nid := range fl.Nets {
					if got := lane1(ls.net[nid], lane); got != s.cur[nid] {
						t.Fatalf("step %dps lane %d net %s: lane %v, LevelSim %v", tm, lane, fl.Nets[nid].Name, got, s.cur[nid])
					}
					if s.cur[nid] != scalars[0].cur[nid] {
						differ |= 1 << lane
					}
				}
				for _, cid := range seqs {
					if got := lane1(ls.state[cid], lane); got != s.state[cid] {
						t.Fatalf("step %dps lane %d cell %s: lane state %v, LevelSim %v", tm, lane, fl.Cells[cid].Path, got, s.state[cid])
					}
					if got := lane1(ls.prevClk[cid], lane); got != s.prevClk[cid] {
						t.Fatalf("step %dps lane %d cell %s: lane last clock %v, LevelSim %v", tm, lane, fl.Cells[cid].Path, got, s.prevClk[cid])
					}
					if s.state[cid] != scalars[0].state[cid] || s.prevClk[cid] != scalars[0].prevClk[cid] {
						differ |= 1 << lane
					}
				}
				if got, want := ls.LaneEvals(lane), s.CellEvals()-ck.Evals; got != want {
					t.Fatalf("step %dps lane %d: %d lane evals, LevelSim %d", tm, lane, got, want)
				}
			}
			if got := ls.Diff() & (1<<len(scalars) - 1); got != differ {
				t.Fatalf("step %dps: Diff %b, lanes differing from lane 0 %b", tm, got, differ)
			}
		}
	})
}
