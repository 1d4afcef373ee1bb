package sim

import (
	"container/heap"
	"fmt"
	"sort"

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

	agenda map[uint64][]lsAction
	times  timeHeap

	scratch   []logic.V // working values during settle
	inputVal  []logic.V // externally driven PI values
	forcedVal []logic.V

	prevClk []logic.V // per sequential cell: clock net value at end of last step

	combOrder []int // combinational cell IDs in ascending level order
	seqCells  []int

	cbNets []int // nets having callbacks, sorted, for deterministic firing

	// Agenda half of delta-restore tracking: touchedTimes are agenda times
	// appended to since the last restore (caller monitors, fault actions),
	// consumedTimes the times Run popped. RestoreDelta re-clones exactly
	// these from the checkpoint.
	touchedTimes  map[uint64]struct{}
	consumedTimes []uint64
}

type lsAction struct {
	kind   actKind
	net    int
	cellID int
	val    logic.V
	fn     func()
}

type timeHeap []uint64

func (h timeHeap) Len() int            { return len(h) }
func (h timeHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h timeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *timeHeap) Push(x interface{}) { *h = append(*h, x.(uint64)) }
func (h *timeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	t := old[n-1]
	*h = old[:n-1]
	return t
}

// NewLevelSim returns a levelized engine with all nets and states at X.
func NewLevelSim(f *netlist.Flat) *LevelSim {
	s := &LevelSim{
		core:         newCore(KindLevel, f),
		agenda:       map[uint64][]lsAction{},
		scratch:      make([]logic.V, len(f.Nets)),
		touchedTimes: map[uint64]struct{}{},
	}
	s.inputVal, s.forcedVal = s.netPlanes[1], s.netPlanes[2]
	s.prevClk = s.cellPlanes[1]
	// Same register-initialization policy as EventSim (see initZeroState):
	// un-resettable storage powers up at 0.
	for _, c := range f.Cells {
		if initZeroState(c) {
			s.state[c.ID] = logic.L0
		}
	}
	s.combOrder = append(s.combOrder, f.CombinationalCells()...)
	sort.SliceStable(s.combOrder, func(i, j int) bool {
		a, b := f.Cells[s.combOrder[i]], f.Cells[s.combOrder[j]]
		if a.Level != b.Level {
			return a.Level < b.Level
		}
		return a.ID < b.ID
	})
	s.seqCells = f.SequentialCells()
	return s
}

func (s *LevelSim) at(t uint64, a lsAction) {
	if _, ok := s.agenda[t]; !ok {
		heap.Push(&s.times, t)
	}
	s.agenda[t] = append(s.agenda[t], a)
	if s.lastRestored != nil {
		s.touchedTimes[t] = struct{}{}
	}
}

// ScheduleInput implements Engine.
func (s *LevelSim) ScheduleInput(t uint64, net int, v logic.V) error {
	if err := validateInput(s.flat, net); err != nil {
		return err
	}
	s.at(t, lsAction{kind: actInput, net: net, val: v})
	return nil
}

// ScheduleForce implements Engine.
func (s *LevelSim) ScheduleForce(t uint64, net int, v logic.V) {
	s.at(t, lsAction{kind: actForce, net: net, val: v})
}

// ScheduleRelease implements Engine.
func (s *LevelSim) ScheduleRelease(t uint64, net int) {
	s.at(t, lsAction{kind: actRelease, net: net})
}

// ScheduleFlip implements Engine.
func (s *LevelSim) ScheduleFlip(t uint64, cellID int) error {
	if err := validateSeqCell(s.flat, cellID); err != nil {
		return err
	}
	s.at(t, lsAction{kind: actFlip, cellID: cellID})
	return nil
}

// At implements Engine. The callback runs after the time step settles, so
// values read inside fn are the stable values at t.
func (s *LevelSim) At(t uint64, fn func()) {
	s.at(t, lsAction{kind: actFunc, fn: fn})
}

// OnNetChange implements Engine.
func (s *LevelSim) OnNetChange(net int, fn NetCallback) {
	if _, ok := s.cbs[net]; !ok {
		s.cbNets = append(s.cbNets, net)
		sort.Ints(s.cbNets)
	}
	s.cbs[net] = append(s.cbs[net], fn)
}

// FlipState implements Engine.
func (s *LevelSim) FlipState(cellID int) error {
	if err := validateSeqCell(s.flat, cellID); err != nil {
		return err
	}
	s.touchCell(cellID)
	s.state[cellID] = s.state[cellID].Not()
	s.settleAndCommit()
	return nil
}

// Run implements Engine.
func (s *LevelSim) Run(until uint64) error {
	for s.times.Len() > 0 && s.times[0] <= until {
		t := heap.Pop(&s.times).(uint64)
		actions := s.agenda[t]
		delete(s.agenda, t)
		if t < s.now {
			return fmt.Errorf("sim: step time %d before now %d", t, s.now)
		}
		if s.lastRestored != nil {
			s.consumedTimes = append(s.consumedTimes, t)
		}
		s.now = t
		var fns []func()
		for _, a := range actions {
			switch a.kind {
			case actInput:
				s.touchNet(a.net)
				s.inputVal[a.net] = a.val
			case actForce:
				s.touchNet(a.net)
				s.forced[a.net] = true
				s.forcedVal[a.net] = a.val
			case actRelease:
				s.touchNet(a.net)
				s.forced[a.net] = false
			case actFlip:
				s.touchCell(a.cellID)
				s.state[a.cellID] = s.state[a.cellID].Not()
			case actFunc:
				fns = append(fns, a.fn)
			}
		}
		if err := s.settleAndCommit(); err != nil {
			return err
		}
		for _, fn := range fns {
			fn()
		}
	}
	if until > s.now {
		s.now = until
	}
	return nil
}

// settleAndCommit propagates the network to a fixed point, performing
// two-phase flip-flop captures on rising clock edges, then commits values
// and fires change callbacks.
func (s *LevelSim) settleAndCommit() error {
	const maxPasses = 8
	copy(s.scratch, s.cur)
	for pass := 0; ; pass++ {
		if pass >= maxPasses {
			return fmt.Errorf("sim: LevelSim did not settle after %d passes (oscillating gated clock?)", maxPasses)
		}
		s.propagate()
		// Phase 1: detect rising edges and compute next states from the
		// settled pre-update values.
		type capture struct {
			cell int
			next logic.V
		}
		var caps []capture
		for _, cid := range s.seqCells {
			c := s.flat.Cells[cid]
			clkNet := c.In[c.Def.InputIndex(c.Def.Seq.Clock)]
			clkNow := s.scratch[clkNet]
			in := make([]logic.V, len(c.In))
			for i, nid := range c.In {
				in[i] = s.scratch[nid]
			}
			if v, active := c.Def.AsyncState(in); active {
				if s.state[cid] != v {
					caps = append(caps, capture{cell: cid, next: v})
				}
			} else if s.prevClk[cid] == logic.L0 && clkNow == logic.L1 {
				next := c.Def.NextState(s.state[cid], in)
				if next != s.state[cid] {
					caps = append(caps, capture{cell: cid, next: next})
				}
			}
			if s.prevClk[cid] != clkNow {
				s.touchCell(cid)
				s.prevClk[cid] = clkNow
			}
		}
		if len(caps) == 0 {
			break
		}
		// Phase 2: commit all captures simultaneously, then re-propagate.
		for _, cp := range caps {
			s.touchCell(cp.cell)
			s.state[cp.cell] = cp.next
		}
	}
	// Commit and fire callbacks deterministically.
	changed := make([]int, 0, 16)
	for nid := range s.cur {
		if s.cur[nid] != s.scratch[nid] {
			s.touchNet(nid)
			s.cur[nid] = s.scratch[nid]
			if _, ok := s.cbs[nid]; ok {
				changed = append(changed, nid)
			}
		}
	}
	sort.Ints(changed)
	for _, nid := range changed {
		for _, fn := range s.cbs[nid] {
			fn(s.now, s.cur[nid])
		}
	}
	return nil
}

// propagate evaluates sources and the full combinational network into
// scratch, applying force overrides as values are produced. Like classic
// oblivious simulators, it sweeps the rank order repeatedly until a sweep
// confirms the network has reached a fixpoint: with force/release pinning
// arbitrary internal nets mid-cone, a single rank-order pass is not
// sufficient in general, so every step pays at least one confirmation
// sweep — the structural reason this engine is the slower baseline.
func (s *LevelSim) propagate() {
	set := func(nid int, v logic.V) bool {
		if s.forced[nid] {
			v = s.forcedVal[nid]
		}
		changed := s.scratch[nid] != v
		s.scratch[nid] = v
		return changed
	}
	for _, nid := range s.flat.PIs {
		set(nid, s.inputVal[nid])
	}
	for _, cid := range s.seqCells {
		c := s.flat.Cells[cid]
		outs := c.Def.StateOutputs(s.state[cid])
		for i, nid := range c.Out {
			set(nid, outs[i])
		}
	}
	in := make([]logic.V, 8)
	const maxSweeps = 16
	for sweep := 0; sweep < maxSweeps; sweep++ {
		changed := false
		for _, cid := range s.combOrder {
			s.cellEvals++
			c := s.flat.Cells[cid]
			in = in[:len(c.In)]
			for i, nid := range c.In {
				in[i] = s.scratch[nid]
			}
			outs := c.Def.Eval(in)
			for i, nid := range c.Out {
				if set(nid, outs[i]) {
					changed = true
				}
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
