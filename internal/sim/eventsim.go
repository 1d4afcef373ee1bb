package sim

import (
	"fmt"

	"repro/internal/cell"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// EventSim is the event-driven engine: only the fanout cone of a changed
// net is re-evaluated, and combinational outputs propagate with the cell's
// inertial delay (glitches shorter than the delay are swallowed, which is
// exactly the filtering SET pulses are subject to in real logic).
type EventSim struct {
	core
	// phase is the coarse tie-breaker ahead of the queue's sequence number:
	// it increments at every Run entry, so events scheduled before a run
	// (stimulus, fault actions, monitors) order ahead of events the run
	// creates dynamically at the same timestamp. For an engine driven the
	// ordinary way phase order coincides with seq order and changes
	// nothing; after Restore it is what lets freshly registered pre-run
	// events slot in ahead of restored in-flight transitions, reproducing a
	// cold run's tie-breaking exactly.
	phase   uint32
	running bool

	driven []logic.V // value the driver wants (differs from cur under force)

	// pending is each net's in-flight inertial transition as a queue
	// slot, -1 for none: a restored run slot (from the checkpoint's
	// pendingIdx) or a slot pushed since.
	pending []int32
}

// NewEventSim returns an event-driven engine with all nets and states at X.
func NewEventSim(f *netlist.Flat) *EventSim {
	s := &EventSim{core: newCore(KindEvent, f), pending: make([]int32, len(f.Nets))}
	s.driven = s.netPlanes[1]
	for i := range s.pending {
		s.pending[i] = -1
	}
	p := s.prog
	for i := range f.Cells {
		cid := int32(i)
		def := p.Def(cid)
		switch {
		case def.LUT != nil && len(def.Inputs) == 0:
			// Tie cells have no inputs and never receive a triggering
			// event; seed their constant outputs at time zero.
			for j, nid := range p.Outs(cid) {
				s.schedule(event{kind: actNet, net: nid, val: logic.V(def.LUT[0] >> (2 * j) & 3)})
			}
		case initZeroState(def):
			// Storage without an asynchronous control (memory bits,
			// enable flops) initializes to 0, mirroring the standard
			// register-initialization practice of fault-injection flows
			// (VCS +vcs+initreg+0): campaigns need a fully defined golden
			// reference, and X-circulating feedback loops would otherwise
			// mask most upsets.
			s.state[cid] = logic.L0
			v := logic.L0
			for _, nid := range p.Outs(cid) {
				s.schedule(event{kind: actNet, net: nid, val: v})
				v = v.Not() // Q, then QN
			}
		}
	}
	return s
}

// initZeroState reports whether a cell's power-on state is initialized
// to zero rather than X: storage with no asynchronous reset/set path.
func initZeroState(d *cell.Def) bool {
	return d.IsSequential() && d.Seq.AsyncResetN == "" && d.Seq.AsyncSetN == ""
}

// schedule queues e in the current phase and returns its arena slot.
func (s *EventSim) schedule(e event) int32 {
	e.phase = s.phase
	return s.q.push(e)
}

// ScheduleInput implements Engine.
func (s *EventSim) ScheduleInput(t uint64, net int, v logic.V) error {
	if err := validateInput(s.flat, net); err != nil {
		return err
	}
	s.schedule(event{t: t, kind: actInput, net: int32(net), val: v})
	return nil
}

// ScheduleForce implements Engine.
func (s *EventSim) ScheduleForce(t uint64, net int, v logic.V) {
	s.schedule(event{t: t, kind: actForce, net: int32(net), val: v})
}

// ScheduleRelease implements Engine.
func (s *EventSim) ScheduleRelease(t uint64, net int) {
	s.schedule(event{t: t, kind: actRelease, net: int32(net)})
}

// ScheduleFlip implements Engine.
func (s *EventSim) ScheduleFlip(t uint64, cellID int) error {
	if err := validateSeqCell(s.flat, cellID); err != nil {
		return err
	}
	s.schedule(event{t: t, kind: actFlip, cellID: int32(cellID)})
	return nil
}

// At implements Engine.
func (s *EventSim) At(t uint64, fn func()) {
	s.schedule(event{t: t, kind: actFunc, fn: fn})
}

// FlipState implements Engine.
func (s *EventSim) FlipState(cellID int) error {
	if err := validateSeqCell(s.flat, cellID); err != nil {
		return err
	}
	s.applyFlip(int32(cellID))
	return nil
}

// applyFlip inverts a storage cell's state. An upset corrupts the storage
// node directly: outputs follow with the cell's propagation delay, as in
// the paper's SEU model (Fig. 2).
func (s *EventSim) applyFlip(cid int32) { s.setState(cid, s.state[cid].Not()) }

// Run implements Engine.
func (s *EventSim) Run(until uint64) error {
	s.phase++
	s.running = true
	defer func() { s.running = false }()
	for t, ok := s.q.next(); ok && t <= until; t, ok = s.q.next() {
		e := s.q.pop()
		if e.cancelled {
			continue
		}
		if e.t < s.now {
			return fmt.Errorf("sim: event time %d before now %d", e.t, s.now)
		}
		s.now = e.t
		switch e.kind {
		case actNet:
			s.touchNet(e.net)
			s.pending[e.net] = -1
			s.driven[e.net] = e.val
			if !s.forced[e.net] {
				s.setNet(e.net, e.val)
			}
		case actInput:
			s.touchNet(e.net)
			s.driven[e.net] = e.val
			if !s.forced[e.net] {
				s.setNet(e.net, e.val)
			}
		case actForce:
			s.touchNet(e.net)
			s.forced[e.net] = true
			s.setNet(e.net, e.val)
		case actRelease:
			if s.forced[e.net] {
				s.touchNet(e.net)
				s.forced[e.net] = false
				s.setNet(e.net, s.driven[e.net])
			}
		case actFlip:
			s.applyFlip(e.cellID)
		case actFunc:
			e.fn()
		}
	}
	if until > s.now {
		s.now = until
	}
	return nil
}

// setNet commits a value change and triggers fanout evaluation.
func (s *EventSim) setNet(nid int32, v logic.V) {
	old := s.cur[nid]
	if old == v {
		return
	}
	s.cur[nid] = v
	for _, fn := range s.callbacks(nid) {
		fn(s.now, v)
	}
	p := s.prog
	for i := p.FanOff[nid]; i < p.FanOff[nid+1]; i++ {
		s.evalCell(p.FanCell[i], p.FanPin[i], old, v)
	}
}

// evalCell reacts to a change on input pin `pin` of cell `cid`.
func (s *EventSim) evalCell(cid, pin int32, old, new logic.V) {
	s.cellEvals++
	p := s.prog
	def := p.Def(cid)
	if def.LUT != nil {
		out := p.Eval(cid, s.cur)
		for j, nid := range p.Outs(cid) {
			s.scheduleCombOutput(nid, logic.V(out>>(2*j)&3), def.DelayPS)
		}
		return
	}
	var buf [4]logic.V
	in := p.Inputs(cid, s.cur, buf[:0])
	// Asynchronous controls dominate and act on any input change.
	if v, active := def.AsyncState(in); active {
		if s.state[cid] != v {
			s.setState(cid, v)
		}
		return
	}
	if int(pin) != def.Seq.ClockPin || old != logic.L0 {
		return
	}
	next := def.NextState(s.state[cid], in)
	switch {
	case next == s.state[cid]:
	case new == logic.L1:
		// A rising edge on the clock pin captures.
		s.setState(cid, next)
	case !new.IsKnown():
		// An unknown clock transition poisons the state, mirroring Verilog
		// pessimism for x-edges, but only when the data would change the
		// state.
		s.setState(cid, logic.X)
	}
}

// setState stores v as a storage cell's state and schedules its outputs.
func (s *EventSim) setState(cid int32, v logic.V) {
	s.touchCell(cid)
	s.state[cid] = v
	d := s.prog.Def(cid).DelayPS
	for _, nid := range s.prog.Outs(cid) {
		s.scheduleCombOutput(nid, v, d)
		v = v.Not() // Q, then QN
	}
}

// scheduleCombOutput applies the inertial-delay rule for a driver that now
// wants value v on net nid after delay d: a newly computed value replaces
// any in-flight transition on the same net. Sequential outputs follow the
// same rule as combinational ones.
func (s *EventSim) scheduleCombOutput(nid int32, v logic.V, d int64) {
	if p := s.pending[nid]; p >= 0 {
		if s.q.evs[p].val == v {
			return // in-flight transition already produces v
		}
		s.q.cancel(p)
		s.pending[nid] = -1
		s.touchNet(nid)
		if v == s.driven[nid] {
			return // cancellation restored the present driven value
		}
	} else if v == s.driven[nid] {
		return
	}
	s.pending[nid] = s.schedule(event{t: s.now + uint64(d), kind: actNet, net: nid, val: v})
	s.touchNet(nid)
}
