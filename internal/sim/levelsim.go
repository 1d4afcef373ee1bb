package sim

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// LevelSim is the levelized oblivious engine: at every scheduled time step
// it re-evaluates the entire combinational network in topological rank
// order, then performs a two-phase flip-flop update on detected clock
// edges. Zero delta delay inside a step gives clean cycle semantics; the
// cost is that every step touches every gate, which is why this engine is
// the slower baseline of the runtime comparison (the paper's OSS-CVC role).
type LevelSim struct {
	core

	scratch   []logic.V // working values during settle
	inputVal  []logic.V // externally driven PI values
	forcedVal []logic.V

	prevClk []logic.V // per sequential cell: clock net value at end of last step

	// Reused per-step buffers: the step's callbacks, the settle's captures,
	// and the committed nets that have callbacks.
	fns     []func()
	caps    []capture
	changed []int32
}

// capture is a storage cell's next state, committed at the end of a pass.
type capture struct {
	cell int32
	next logic.V
}

// NewLevelSim returns a levelized engine with all nets and states at X.
func NewLevelSim(f *netlist.Flat) *LevelSim {
	s := &LevelSim{
		core:    newCore(KindLevel, f),
		scratch: make([]logic.V, len(f.Nets)),
	}
	s.inputVal, s.forcedVal = s.netPlanes[1], s.netPlanes[2]
	s.prevClk = s.cellPlanes[1]
	// Same register-initialization policy as EventSim (see initZeroState):
	// un-resettable storage powers up at 0.
	for _, c := range f.Cells {
		if initZeroState(c.Def) {
			s.state[c.ID] = logic.L0
		}
	}
	return s
}

// ScheduleInput implements Engine.
func (s *LevelSim) ScheduleInput(t uint64, net int, v logic.V) error {
	if err := validateInput(s.flat, net); err != nil {
		return err
	}
	s.q.push(event{t: t, kind: actInput, net: int32(net), val: v})
	return nil
}

// ScheduleForce implements Engine.
func (s *LevelSim) ScheduleForce(t uint64, net int, v logic.V) {
	s.q.push(event{t: t, kind: actForce, net: int32(net), val: v})
}

// ScheduleRelease implements Engine.
func (s *LevelSim) ScheduleRelease(t uint64, net int) {
	s.q.push(event{t: t, kind: actRelease, net: int32(net)})
}

// ScheduleFlip implements Engine.
func (s *LevelSim) ScheduleFlip(t uint64, cellID int) error {
	if err := validateSeqCell(s.flat, cellID); err != nil {
		return err
	}
	s.q.push(event{t: t, kind: actFlip, cellID: int32(cellID)})
	return nil
}

// At implements Engine. The callback runs after the time step settles, so
// values read inside fn are the stable values at t.
func (s *LevelSim) At(t uint64, fn func()) {
	s.q.push(event{t: t, kind: actFunc, fn: fn})
}

// FlipState implements Engine.
func (s *LevelSim) FlipState(cellID int) error {
	if err := validateSeqCell(s.flat, cellID); err != nil {
		return err
	}
	s.state[cellID] = s.state[cellID].Not()
	return s.settleAndCommit()
}

// Run implements Engine. A step takes every action queued at its time,
// in the order queued, then settles and runs the step's callbacks.
func (s *LevelSim) Run(until uint64) error {
	for t, ok := s.q.next(); ok && t <= until; t, ok = s.q.next() {
		if t < s.now {
			return fmt.Errorf("sim: step time %d before now %d", t, s.now)
		}
		s.now = t
		for next, ok := t, true; ok && next == t; next, ok = s.q.next() {
			switch a := s.q.pop(); a.kind {
			case actInput:
				s.inputVal[a.net] = a.val
			case actForce:
				s.forced[a.net] = true
				s.forcedVal[a.net] = a.val
			case actRelease:
				s.forced[a.net] = false
			case actFlip:
				s.state[a.cellID] = s.state[a.cellID].Not()
			case actFunc:
				s.fns = append(s.fns, a.fn)
			}
		}
		if err := s.settleAndCommit(); err != nil {
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

// A LevelSim step settles in at most maxPasses capture passes, each
// propagating in at most maxSweeps rank-order sweeps; a step still
// capturing after the last pass fails with errUnsettled. LaneSim keeps the
// same bounds and returns the same error.
const (
	maxPasses = 8
	maxSweeps = 16
)

var errUnsettled = fmt.Errorf("sim: LevelSim did not settle after %d passes (oscillating gated clock?)", maxPasses)

// settleAndCommit propagates the network to a fixed point, performing
// two-phase flip-flop captures on rising clock edges, then commits values
// and fires change callbacks.
func (s *LevelSim) settleAndCommit() error {
	p := s.prog
	copy(s.scratch, s.cur)
	for pass := 0; ; pass++ {
		if pass >= maxPasses {
			return errUnsettled
		}
		s.propagate()
		// Phase 1: detect rising edges and compute next states from the
		// settled pre-update values.
		s.caps = s.caps[:0]
		for _, cid := range p.SeqCells {
			def := p.Def(cid)
			var buf [4]logic.V
			in := p.Inputs(cid, s.scratch, buf[:0])
			clkNow := in[def.Seq.ClockPin]
			if v, active := def.AsyncState(in); active {
				if s.state[cid] != v {
					s.caps = append(s.caps, capture{cell: cid, next: v})
				}
			} else if s.prevClk[cid] == logic.L0 && clkNow == logic.L1 {
				if next := def.NextState(s.state[cid], in); next != s.state[cid] {
					s.caps = append(s.caps, capture{cell: cid, next: next})
				}
			}
			s.prevClk[cid] = clkNow
		}
		if len(s.caps) == 0 {
			break
		}
		// Phase 2: commit all captures simultaneously, then re-propagate.
		for _, cp := range s.caps {
			s.state[cp.cell] = cp.next
		}
	}
	// Commit, then fire callbacks in net order.
	s.changed = s.changed[:0]
	for nid := range s.cur {
		if s.cur[nid] != s.scratch[nid] {
			s.cur[nid] = s.scratch[nid]
			if s.cbAt[nid] != 0 {
				s.changed = append(s.changed, int32(nid))
			}
		}
	}
	for _, nid := range s.changed {
		for _, fn := range s.callbacks(nid) {
			fn(s.now, s.cur[nid])
		}
	}
	return nil
}

// set writes v, or the force value while nid is forced, to nid's scratch
// value and reports whether that changed it.
func (s *LevelSim) set(nid int32, v logic.V) bool {
	if s.forced[nid] {
		v = s.forcedVal[nid]
	}
	changed := s.scratch[nid] != v
	s.scratch[nid] = v
	return changed
}

// propagate evaluates sources and the full combinational network into
// scratch, applying force overrides as values are produced. Like classic
// oblivious simulators, it sweeps the rank order repeatedly until a sweep
// confirms the network has reached a fixpoint: with force/release pinning
// arbitrary internal nets mid-cone, a single rank-order pass is not
// sufficient in general, so every step pays at least one confirmation
// sweep — the structural reason this engine is the slower baseline.
func (s *LevelSim) propagate() {
	p := s.prog
	for _, nid := range s.flat.PIs {
		s.set(int32(nid), s.inputVal[nid])
	}
	for _, cid := range p.SeqCells {
		v := s.state[cid]
		for _, nid := range p.Outs(cid) {
			s.set(nid, v)
			v = v.Not() // Q, then QN
		}
	}
	for sweep := 0; sweep < maxSweeps; sweep++ {
		changed := false
		for _, cid := range p.CombOrder {
			s.cellEvals++
			out := p.Eval(cid, s.scratch)
			for _, nid := range p.Outs(cid) {
				if s.set(nid, logic.V(out&3)) {
					changed = true
				}
				out >>= 2
			}
		}
		if !changed {
			break
		}
	}
	// Forced nets with no driver still need the forced value applied.
	for nid, f := range s.forced {
		if f {
			s.scratch[nid] = s.forcedVal[nid]
		}
	}
}
