package sim

import (
	"container/heap"
	"fmt"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// EventSim is the event-driven engine: only the fanout cone of a changed
// net is re-evaluated, and combinational outputs propagate with the cell's
// inertial delay (glitches shorter than the delay are swallowed, which is
// exactly the filtering SET pulses are subject to in real logic).
type EventSim struct {
	core
	seq uint64 // tie-breaker for deterministic event order
	// phase is the coarse tie-breaker ahead of seq: it increments at every
	// Run entry, so events scheduled before a run (stimulus, fault actions,
	// monitors) order ahead of events the run creates dynamically at the
	// same timestamp. For an engine driven the ordinary way phase order
	// coincides with seq order and changes nothing; after Restore it is
	// what lets freshly registered pre-run events slot in ahead of restored
	// in-flight transitions, reproducing a cold run's tie-breaking exactly.
	phase   uint32
	running bool
	evts    eventHeap

	driven []logic.V // value the driver wants (differs from cur under force)

	pending []*event // per-net pending inertial transition (may be nil)

	// restoredEvts is parallel to lastRestored's queue (the live event per
	// checkpoint index); present is RestoreDelta's reusable scratch.
	restoredEvts []*event
	present      []bool
}

type event struct {
	t         uint64
	seq       uint64
	phase     uint32
	kind      actKind
	net       int
	cellID    int
	val       logic.V
	fn        func()
	cancelled bool
	// ckIdx is the event's index in the last-restored checkpoint's event
	// list, or -1 for events scheduled since (dynamically or by a caller).
	// RestoreDelta uses it to tell retained checkpoint events apart from
	// post-restore additions without a lookup structure.
	ckIdx int32
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	if h[i].phase != h[j].phase {
		return h[i].phase < h[j].phase
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// NewEventSim returns an event-driven engine with all nets and states at X.
func NewEventSim(f *netlist.Flat) *EventSim {
	s := &EventSim{core: newCore(KindEvent, f), pending: make([]*event, len(f.Nets))}
	s.driven = s.netPlanes[1]
	for _, c := range f.Cells {
		switch {
		case !c.Def.IsSequential() && len(c.Def.Inputs) == 0:
			// Tie cells have no inputs and never receive a triggering
			// event; seed their constant outputs at time zero.
			out := c.Def.Eval(nil)
			for i, nid := range c.Out {
				s.schedule(&event{t: 0, kind: actNet, net: nid, val: out[i]})
			}
		case initZeroState(c):
			// Storage without an asynchronous control (memory bits,
			// enable flops) initializes to 0, mirroring the standard
			// register-initialization practice of fault-injection flows
			// (VCS +vcs+initreg+0): campaigns need a fully defined golden
			// reference, and X-circulating feedback loops would otherwise
			// mask most upsets.
			s.state[c.ID] = logic.L0
			outs := c.Def.StateOutputs(logic.L0)
			for i, nid := range c.Out {
				s.schedule(&event{t: 0, kind: actNet, net: nid, val: outs[i]})
			}
		}
	}
	return s
}

// initZeroState reports whether the cell's power-on state is initialized
// to zero rather than X: storage with no asynchronous reset/set path.
func initZeroState(c *netlist.FlatCell) bool {
	return c.Def.IsSequential() &&
		c.Def.Seq.AsyncResetN == "" && c.Def.Seq.AsyncSetN == ""
}

func (s *EventSim) schedule(e *event) {
	e.seq = s.seq
	e.phase = s.phase
	e.ckIdx = -1
	s.seq++
	heap.Push(&s.evts, e)
}

// ScheduleInput implements Engine.
func (s *EventSim) ScheduleInput(t uint64, net int, v logic.V) error {
	if err := validateInput(s.flat, net); err != nil {
		return err
	}
	s.schedule(&event{t: t, kind: actInput, net: net, val: v})
	return nil
}

// ScheduleForce implements Engine.
func (s *EventSim) ScheduleForce(t uint64, net int, v logic.V) {
	s.schedule(&event{t: t, kind: actForce, net: net, val: v})
}

// ScheduleRelease implements Engine.
func (s *EventSim) ScheduleRelease(t uint64, net int) {
	s.schedule(&event{t: t, kind: actRelease, net: net})
}

// ScheduleFlip implements Engine.
func (s *EventSim) ScheduleFlip(t uint64, cellID int) error {
	if err := validateSeqCell(s.flat, cellID); err != nil {
		return err
	}
	s.schedule(&event{t: t, kind: actFlip, cellID: cellID})
	return nil
}

// At implements Engine.
func (s *EventSim) At(t uint64, fn func()) {
	s.schedule(&event{t: t, kind: actFunc, fn: fn})
}

// OnNetChange implements Engine.
func (s *EventSim) OnNetChange(net int, fn NetCallback) {
	s.cbs[net] = append(s.cbs[net], fn)
}

// FlipState implements Engine.
func (s *EventSim) FlipState(cellID int) error {
	if err := validateSeqCell(s.flat, cellID); err != nil {
		return err
	}
	s.applyFlip(cellID)
	return nil
}

func (s *EventSim) applyFlip(cellID int) {
	c := s.flat.Cells[cellID]
	s.touchCell(cellID)
	s.state[cellID] = s.state[cellID].Not()
	outs := c.Def.StateOutputs(s.state[cellID])
	// An upset corrupts the storage node directly: outputs follow with the
	// cell's propagation delay, as in the paper's SEU model (Fig. 2).
	for i, nid := range c.Out {
		s.scheduleCombOutput(nid, outs[i], c.Def.DelayPS)
	}
}

// Run implements Engine.
func (s *EventSim) Run(until uint64) error {
	s.phase++
	s.running = true
	defer func() { s.running = false }()
	for s.evts.Len() > 0 {
		e := s.evts[0]
		if e.t > until {
			break
		}
		heap.Pop(&s.evts)
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
			s.pending[e.net] = nil
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
func (s *EventSim) setNet(nid int, v logic.V) {
	old := s.cur[nid]
	if old == v {
		return
	}
	s.cur[nid] = v
	for _, fn := range s.cbs[nid] {
		fn(s.now, v)
	}
	for _, fo := range s.flat.Nets[nid].Fanout {
		s.evalCell(fo.Cell, fo.Pin, old, v)
	}
}

// evalCell reacts to a change on input pin `pin` of cell `cid`.
func (s *EventSim) evalCell(cid, pin int, old, new logic.V) {
	s.cellEvals++
	c := s.flat.Cells[cid]
	def := c.Def
	if !def.IsSequential() {
		in := s.gatherInputs(c)
		out := def.Eval(in)
		for i, nid := range c.Out {
			s.scheduleCombOutput(nid, out[i], def.DelayPS)
		}
		return
	}
	in := s.gatherInputs(c)
	// Asynchronous controls dominate and act on any input change.
	if v, active := def.AsyncState(in); active {
		if s.state[cid] != v {
			s.touchCell(cid)
			s.state[cid] = v
			s.pushSeqOutputs(c)
		}
		return
	}
	// A rising edge on the clock pin captures.
	clkPin := def.InputIndex(def.Seq.Clock)
	if pin == clkPin && old == logic.L0 && new == logic.L1 {
		next := def.NextState(s.state[cid], in)
		if next != s.state[cid] {
			s.touchCell(cid)
			s.state[cid] = next
			s.pushSeqOutputs(c)
		}
		return
	}
	// An unknown clock transition poisons the state, mirroring Verilog
	// pessimism for x-edges, but only when the data would change the state.
	if pin == clkPin && old == logic.L0 && !new.IsKnown() {
		next := def.NextState(s.state[cid], in)
		if next != s.state[cid] {
			s.touchCell(cid)
			s.state[cid] = logic.X
			s.pushSeqOutputs(c)
		}
	}
}

func (s *EventSim) pushSeqOutputs(c *netlist.FlatCell) {
	outs := c.Def.StateOutputs(s.state[c.ID])
	for i, nid := range c.Out {
		s.scheduleCombOutput(nid, outs[i], c.Def.DelayPS)
	}
}

// scheduleCombOutput applies the inertial-delay rule for a driver that now
// wants value v on net nid after delay d: a newly computed value replaces
// any in-flight transition on the same net. Sequential outputs follow the
// same rule as combinational ones.
func (s *EventSim) scheduleCombOutput(nid int, v logic.V, d int64) {
	if p := s.pending[nid]; p != nil {
		if p.val == v {
			return // in-flight transition already produces v
		}
		p.cancelled = true
		s.pending[nid] = nil
		s.touchNet(nid)
		if v == s.driven[nid] {
			return // cancellation restored the present driven value
		}
	} else if v == s.driven[nid] {
		return
	}
	e := &event{t: s.now + uint64(d), kind: actNet, net: nid, val: v}
	s.pending[nid] = e
	s.touchNet(nid)
	s.schedule(e)
}

func (s *EventSim) gatherInputs(c *netlist.FlatCell) []logic.V {
	in := make([]logic.V, len(c.In))
	for i, nid := range c.In {
		in[i] = s.cur[nid]
	}
	return in
}
