package sim

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/cell"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// Lanes is how many machines one LaneSim simulates side by side: lane 0
// and lanes 1..Lanes-1, one bit each of every word.
const Lanes = 64

var (
	// errNotTwoValued refuses a checkpoint a LaneSim cannot start from: a
	// net, PI drive, storage state or clock-edge memory at X or Z, a
	// forced net, or a queued action other than a known input change.
	errNotTwoValued = errors.New("sim: checkpoint is not two-valued")
	// errSweepCap reports a live lane whose bits were still changing at
	// LevelSim's sweep cap. LevelSim would carry on from the unsettled
	// sweep; a lane pass stops instead, so its caller can run those lanes
	// one by one on LevelSim.
	errSweepCap = errors.New("sim: lane still changing at the sweep cap")
)

// LaneSim is LevelSim over Lanes machines at once, in the manner of
// PROOFS parallel-pattern fault simulation: every net, storage state and
// clock-edge memory is one uint64 whose bit i is lane i's two-valued
// value, and every cell is evaluated for all lanes by one bitwise formula.
// The lanes share the schedule — a restored LevelSim checkpoint's queued
// inputs plus shared callbacks — and differ only by per-lane state flips.
// After every step each lane's values equal a LevelSim's that started
// from the same checkpoint and took that lane's flips alone
// (FuzzLaneVsScalar).
//
// Work is accounted per lane as that LevelSim would count it: a step
// counts for a lane only if the LevelSim has it (a shared action or one
// of the lane's own flips), a capture pass only while the lane still
// captures, and a sweep only while the lane's bits still change, the
// sweep confirming they stopped included. Lanes outside the live set are
// don't-cares: they neither extend a settle nor trip its bounds.
type LaneSim struct {
	flat  *netlist.Flat
	gates []laneGate // the combinational cells in rank order
	seqs  []laneSeq  // the storage cells by ID
	now   uint64

	// net holds a word per net, then two constant words: ones (all lanes
	// 1, the drive of an absent enable, reset or set pin) and zero (the
	// second output of every single-output gate, which writes 0 there).
	net     []uint64
	input   []uint64 // per net: the driven value of a primary input
	state   []uint64 // per cell: a storage cell's state
	prevClk []uint64 // per cell: a storage cell's clock at its last pass

	q    queue
	fns  []func()
	caps []laneCap

	live, counted uint64
	sweeps        [Lanes]uint64
	words         uint64
}

// laneOp selects a combinational cell's bitwise formula.
type laneOp uint8

const (
	opTie0 laneOp = iota
	opTie1
	opInv
	opBuf
	opAnd2
	opAnd3
	opNand2
	opNand3
	opNand4
	opOr2
	opOr3
	opNor2
	opNor3
	opNor4
	opXor2
	opXnor2
	opMux2
	opAoi21
	opOai21
	opAoi22
	opOai22
	opHa
	opFa
)

// laneOps maps each combinational library cell to its formula;
// TestLaneFormulasMatchLUT checks every one against the cell's LUT.
var laneOps = map[string]laneOp{
	"TIELO": opTie0, "TIEHI": opTie1, "INVX1": opInv, "BUFX2": opBuf,
	"AND2X1": opAnd2, "AND3X1": opAnd3,
	"NAND2X1": opNand2, "NAND3X1": opNand3, "NAND4X1": opNand4,
	"OR2X1": opOr2, "OR3X1": opOr3,
	"NOR2X1": opNor2, "NOR3X1": opNor3, "NOR4X1": opNor4,
	"XOR2X1": opXor2, "XNOR2X1": opXnor2, "MUX2X1": opMux2,
	"AOI21X1": opAoi21, "OAI21X1": opOai21, "AOI22X1": opAoi22, "OAI22X1": opOai22,
	"HAX1": opHa, "FAX1": opFa,
}

// laneGate is one combinational cell compiled for lanes: its formula, its
// input nets and its output nets, a single-output cell's second being the
// zero word.
type laneGate struct {
	op  laneOp
	in  [4]int32
	out [2]int32
}

// eval returns g's output words for the net words v.
func (g *laneGate) eval(v []uint64) (y, y1 uint64) {
	in := &g.in
	switch g.op {
	case opTie1:
		return ^uint64(0), 0
	case opInv:
		return ^v[in[0]], 0
	case opBuf:
		return v[in[0]], 0
	case opAnd2:
		return v[in[0]] & v[in[1]], 0
	case opAnd3:
		return v[in[0]] & v[in[1]] & v[in[2]], 0
	case opNand2:
		return ^(v[in[0]] & v[in[1]]), 0
	case opNand3:
		return ^(v[in[0]] & v[in[1]] & v[in[2]]), 0
	case opNand4:
		return ^(v[in[0]] & v[in[1]] & v[in[2]] & v[in[3]]), 0
	case opOr2:
		return v[in[0]] | v[in[1]], 0
	case opOr3:
		return v[in[0]] | v[in[1]] | v[in[2]], 0
	case opNor2:
		return ^(v[in[0]] | v[in[1]]), 0
	case opNor3:
		return ^(v[in[0]] | v[in[1]] | v[in[2]]), 0
	case opNor4:
		return ^(v[in[0]] | v[in[1]] | v[in[2]] | v[in[3]]), 0
	case opXor2:
		return v[in[0]] ^ v[in[1]], 0
	case opXnor2:
		return ^(v[in[0]] ^ v[in[1]]), 0
	case opMux2:
		s := v[in[2]]
		return v[in[0]]&^s | v[in[1]]&s, 0
	case opAoi21:
		return ^(v[in[0]]&v[in[1]] | v[in[2]]), 0
	case opOai21:
		return ^((v[in[0]] | v[in[1]]) & v[in[2]]), 0
	case opAoi22:
		return ^(v[in[0]]&v[in[1]] | v[in[2]]&v[in[3]]), 0
	case opOai22:
		return ^((v[in[0]] | v[in[1]]) & (v[in[2]] | v[in[3]])), 0
	case opHa:
		a, b := v[in[0]], v[in[1]]
		return a ^ b, a & b
	case opFa:
		a, b, c := v[in[0]], v[in[1]], v[in[2]]
		return a ^ b ^ c, a&b | c&(a^b)
	}
	return 0, 0 // opTie0
}

// laneSeq is one storage cell compiled for lanes: its clock, data,
// enable, active-low reset and set nets (the ones word for an absent
// pin), and its Q and QN nets (QN -1 when absent).
type laneSeq struct {
	cell                 int32
	clk, d, en, rst, set int32
	q, qn                int32
}

// next is LevelSim's capture rule for all lanes at once: an active async
// control (reset over set) forces the state; otherwise a rising edge
// (clock 0 at the last pass, 1 now) takes D, or keeps the state while the
// enable is low; otherwise the state holds.
func (sc *laneSeq) next(v []uint64, state, prevClk uint64) uint64 {
	en, rstOn, setOn := v[sc.en], ^v[sc.rst], ^v[sc.set]
	edge := ^prevClk & v[sc.clk]
	clocked := edge&(en&v[sc.d]|^en&state) | ^edge&state
	async := rstOn | setOn
	return async&^rstOn | ^async&clocked
}

// laneCap is a storage cell's next state word, committed at the end of a
// pass.
type laneCap struct {
	cell int32
	next uint64
}

// NewLaneSim compiles f for lane simulation. Every value starts at 0 in
// every lane; Restore loads a start state.
func NewLaneSim(f *netlist.Flat) (*LaneSim, error) {
	p := f.Program()
	n := int32(len(f.Nets))
	ones, zero := n, n+1
	s := &LaneSim{
		flat:    f,
		net:     make([]uint64, n+2),
		input:   make([]uint64, n),
		state:   make([]uint64, len(f.Cells)),
		prevClk: make([]uint64, len(f.Cells)),
		live:    ^uint64(0),
		counted: ^uint64(0),
	}
	s.net[ones] = ^uint64(0)
	for _, cid := range p.CombOrder {
		g, err := newLaneGate(p.Def(cid), p.Ins(cid), p.Outs(cid), zero)
		if err != nil {
			return nil, err
		}
		s.gates = append(s.gates, g)
	}
	for _, cid := range p.SeqCells {
		s.seqs = append(s.seqs, newLaneSeq(p.Def(cid), cid, p.Ins(cid), p.Outs(cid), ones))
	}
	return s, nil
}

// newLaneGate compiles a combinational cell of library cell def reading
// nets in and driving nets out; zero is the word a single-output cell's
// second output goes to.
func newLaneGate(def *cell.Def, in, out []int32, zero int32) (laneGate, error) {
	op, ok := laneOps[def.Name]
	if !ok {
		return laneGate{}, fmt.Errorf("sim: cell %s has no lane formula", def.Name)
	}
	g := laneGate{op: op, out: [2]int32{out[0], zero}}
	copy(g.in[:], in)
	copy(g.out[:], out)
	return g, nil
}

// newLaneSeq compiles storage cell cid of library cell def reading nets
// in and driving nets out; ones stands in for an absent control pin.
func newLaneSeq(def *cell.Def, cid int32, in, out []int32, ones int32) laneSeq {
	pin := func(port string) int32 {
		if i := def.InputIndex(port); i >= 0 {
			return in[i]
		}
		return ones
	}
	sp := def.Seq
	sc := laneSeq{cell: cid, clk: pin(sp.Clock), d: pin(sp.DataPort),
		en: pin(sp.Enable), rst: pin(sp.AsyncResetN), set: pin(sp.AsyncSetN), q: out[0], qn: -1}
	if len(out) > 1 {
		sc.qn = out[1]
	}
	return sc
}

// word broadcasts a known value to every lane.
func word(v logic.V) (uint64, bool) {
	switch v {
	case logic.L0:
		return 0, true
	case logic.L1:
		return ^uint64(0), true
	}
	return 0, false
}

// Restore loads a LevelSim checkpoint into every lane: its values, its
// clock and its queued inputs. It refuses, with errNotTwoValued, a
// checkpoint lanes cannot represent. Restore drops every flip and
// callback scheduled before it, makes every lane live and counted, and
// zeroes the work counters.
func (s *LaneSim) Restore(ck *Checkpoint) error {
	if err := ck.check(KindLevel, s.flat); err != nil {
		return err
	}
	cur, inputVal := ck.netPlanes[0], ck.netPlanes[1]
	state, prevClk := ck.cellPlanes[0], ck.cellPlanes[1]
	known := true
	load := func(dst *uint64, v logic.V) {
		w, ok := word(v)
		*dst, known = w, known && ok
	}
	for nid, v := range cur {
		load(&s.net[nid], v)
		known = known && !ck.forced[nid]
	}
	for _, nid := range s.flat.PIs {
		load(&s.input[nid], inputVal[nid])
	}
	for _, sc := range s.seqs {
		load(&s.state[sc.cell], state[sc.cell])
		load(&s.prevClk[sc.cell], prevClk[sc.cell])
	}
	for i := range ck.evs {
		a := &ck.evs[i]
		known = known && a.kind == actInput && a.val.IsKnown()
	}
	if !known {
		return errNotTwoValued
	}
	s.q.load(ck)
	s.q.seq = uint64(len(ck.evs))
	clear(s.fns) // a step a settle error cut short left its callbacks
	s.fns = s.fns[:0]
	s.now = ck.TimePS
	s.live, s.counted = ^uint64(0), ^uint64(0)
	s.sweeps, s.words = [Lanes]uint64{}, 0
	return nil
}

// ScheduleFlip inverts a storage cell's state in one lane at time t.
func (s *LaneSim) ScheduleFlip(t uint64, cellID, lane int) error {
	if err := validateSeqCell(s.flat, cellID); err != nil {
		return err
	}
	if lane < 0 || lane >= Lanes {
		return fmt.Errorf("sim: lane %d out of range", lane)
	}
	// A flip event carries its lane in the net field.
	s.q.push(event{t: t, kind: actFlip, cellID: int32(cellID), net: int32(lane)})
	return nil
}

// At runs fn once the step at time t has settled. Every lane's LevelSim
// has that step: fn is a shared action.
func (s *LaneSim) At(t uint64, fn func()) {
	s.q.push(event{t: t, kind: actFunc, fn: fn})
}

// Track sets which lanes the engine works for. A settle runs until every
// live lane is settled, and only a live lane can trip its bounds; only a
// counted lane's sweeps are counted. Lanes outside live are don't-cares
// from here on.
func (s *LaneSim) Track(live, counted uint64) { s.live, s.counted = live, counted }

// Word returns a net's value in every lane.
func (s *LaneSim) Word(net int) uint64 { return s.net[net] }

// LaneEvals reports the cell evaluations a LevelSim running lane alone
// would have counted since Restore, over the steps and passes the lane
// was counted in.
func (s *LaneSim) LaneEvals(lane int) uint64 { return s.sweeps[lane] * uint64(len(s.gates)) }

// WordEvals reports the cell evaluations the lane pass performed since
// Restore: one per cell per sweep, whatever the lane count.
func (s *LaneSim) WordEvals() uint64 { return s.words }

// Diff returns the lanes whose state differs from lane 0's: on a net, a
// storage state or a clock-edge memory. Inputs are shared and never
// differ.
func (s *LaneSim) Diff() uint64 {
	var d uint64
	for _, w := range s.net[:len(s.flat.Nets)] {
		d |= w ^ -(w & 1)
	}
	for i := range s.seqs {
		w, p := s.state[s.seqs[i].cell], s.prevClk[s.seqs[i].cell]
		d |= (w ^ -(w & 1)) | (p ^ -(p & 1))
	}
	return d
}

// Run advances every lane until no action remains at or before until,
// leaving Now() == until. A step takes every action queued at its time,
// settles and then runs its callbacks, as LevelSim.Run does.
func (s *LaneSim) Run(until uint64) error {
	for t, ok := s.q.next(); ok && t <= until; t, ok = s.q.next() {
		if t < s.now {
			return fmt.Errorf("sim: step time %d before now %d", t, s.now)
		}
		s.now = t
		var has uint64 // the lanes whose LevelSim has this step
		for next, ok := t, true; ok && next == t; next, ok = s.q.next() {
			switch a := s.q.pop(); a.kind {
			case actInput:
				s.input[a.net], _ = word(a.val)
				has = ^uint64(0)
			case actFlip:
				s.state[a.cellID] ^= 1 << a.net
				has |= 1 << a.net
			case actFunc:
				s.fns = append(s.fns, a.fn)
				has = ^uint64(0)
			}
		}
		if err := s.settle(has & s.counted); err != nil {
			return err
		}
		for _, fn := range s.fns {
			fn()
		}
		clear(s.fns)
		s.fns = s.fns[:0]
	}
	if until > s.now {
		s.now = until
	}
	return nil
}

// settle is LevelSim.settleAndCommit for all lanes: capture passes until
// no live lane captures, counting the counted lanes' sweeps while each
// still takes part.
func (s *LaneSim) settle(counted uint64) error {
	for pass := 0; ; pass++ {
		if pass >= maxPasses {
			return errUnsettled
		}
		if err := s.propagate(counted); err != nil {
			return err
		}
		var captured uint64
		s.caps = s.caps[:0]
		for i := range s.seqs {
			sc := &s.seqs[i]
			st := s.state[sc.cell]
			if next := sc.next(s.net, st, s.prevClk[sc.cell]); next != st {
				s.caps = append(s.caps, laneCap{cell: sc.cell, next: next})
				captured |= next ^ st
			}
			s.prevClk[sc.cell] = s.net[sc.clk]
		}
		if captured&s.live == 0 {
			return nil
		}
		for _, cp := range s.caps {
			s.state[cp.cell] = cp.next
		}
		counted &= captured
	}
}

// propagate is LevelSim.propagate for all lanes: sources, then rank-order
// sweeps until one changes no live lane's bits. A counted lane's sweeps
// count until its first unchanged one.
func (s *LaneSim) propagate(counted uint64) error {
	v := s.net
	for _, nid := range s.flat.PIs {
		v[nid] = s.input[nid]
	}
	for i := range s.seqs {
		sc := &s.seqs[i]
		st := s.state[sc.cell]
		v[sc.q] = st
		if sc.qn >= 0 {
			v[sc.qn] = ^st
		}
	}
	for sweep := 0; ; sweep++ {
		if sweep == maxSweeps {
			return errSweepCap
		}
		s.words += uint64(len(s.gates))
		for m := counted; m != 0; m &= m - 1 {
			s.sweeps[bits.TrailingZeros64(m)]++
		}
		var changed uint64
		for i := range s.gates {
			g := &s.gates[i]
			y, y1 := g.eval(v)
			changed |= (v[g.out[0]] ^ y) | (v[g.out[1]] ^ y1)
			v[g.out[0]], v[g.out[1]] = y, y1
		}
		counted &= changed
		if changed&s.live == 0 {
			return nil
		}
	}
}
