package sim

import (
	"fmt"
	"slices"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// Checkpoint is an immutable snapshot of an engine's complete execution
// state at one simulation instant: net values, force state, sequential
// state, the eval counter, and every scheduled *data* action still queued
// (input, force, release, flip, and pending inertial transitions).
//
// Function callbacks (At / OnNetChange) are deliberately NOT captured: they
// belong to the run's observer, not to the design state. A caller that
// restores a checkpoint re-registers whatever callbacks the resumed run
// needs — this is what lets the injection campaign restore a golden
// checkpoint and attach a fresh fault action plus tail-only monitors.
//
// Both engines snapshot into this one body: value planes (per net, per
// cell; see planeLayout for what each engine keeps where), the force
// plane, and one time-ordered list of queued actions, which both engines
// load into the same arena queue.
//
// A Checkpoint is engine-kind specific and safe for concurrent use by any
// number of restoring engines: Restore copies, it never aliases.
type Checkpoint struct {
	// Kind is the engine implementation that produced the snapshot.
	Kind EngineKind
	// TimePS is the simulation time the snapshot was taken at.
	TimePS uint64
	// Evals is the producing engine's CellEvals() at the snapshot instant.
	Evals uint64

	design string
	nets   int
	cells  int

	netPlanes  [][]logic.V
	forced     []bool
	cellPlanes [][]logic.V

	// evs holds the queued data actions in the order the engine consumes
	// them, entry i already in the form a restore loads into run slot i.
	// EventSim's list is sorted by (t, phase, seq), with phase normalized
	// at snapshot time: 0 for events scheduled before the producing run
	// began (the pre-scheduled stimulus), 1 for events the run created
	// dynamically (pending inertial transitions). On restore, events a
	// caller schedules before resuming Run take phase 0 with fresh
	// sequence numbers, which slots them after the restored stimulus but
	// before the restored in-flight transitions at equal times — exactly
	// the order a cold run would have used. LevelSim's list is in
	// ascending time, each step's actions in their original order (a step
	// applies them in list order), with seq = i and phase 0.
	evs []event

	// EventSim only: the sequence counter to resume from, and each net's
	// in-flight inertial transition as an index into evs (-1 for none).
	seqBase    uint64
	pendingIdx []int32
}

// check validates that a checkpoint of the expected kind can be restored
// onto an engine simulating design f.
func (ck *Checkpoint) check(kind EngineKind, f *netlist.Flat) error {
	if ck == nil {
		return fmt.Errorf("sim: nil checkpoint")
	}
	if ck.Kind != kind {
		return fmt.Errorf("sim: checkpoint kind %s cannot restore a %s", ck.Kind, kind)
	}
	if ck.design != f.Name || ck.nets != len(f.Nets) || ck.cells != len(f.Cells) {
		return fmt.Errorf("sim: checkpoint of %s (%d nets, %d cells) does not match design %s (%d nets, %d cells)",
			ck.design, ck.nets, ck.cells, f.Name, len(f.Nets), len(f.Cells))
	}
	return nil
}

// CheckDesign validates that ck can restore an engine of its own kind
// simulating design f — the eager form of the validation Restore performs,
// for callers that adopt decoded checkpoints and want to refuse a
// mismatched artifact before touching any engine. It additionally checks
// what only the design can tell and only a foreign blob can get wrong:
// every queued flip targets a sequential cell.
func (ck *Checkpoint) CheckDesign(f *netlist.Flat) error {
	if ck == nil {
		return fmt.Errorf("sim: nil checkpoint")
	}
	if err := ck.check(ck.Kind, f); err != nil {
		return err
	}
	for i := range ck.evs {
		if e := &ck.evs[i]; e.kind == actFlip {
			if err := validateSeqCell(f, int(e.cellID)); err != nil {
				return fmt.Errorf("sim: checkpoint queue entry %d: %w", i, err)
			}
		}
	}
	return nil
}

func clonePlanes(planes [][]logic.V) [][]logic.V {
	out := make([][]logic.V, len(planes))
	for i, p := range planes {
		out[i] = slices.Clone(p)
	}
	return out
}

// snapshot captures everything but the queue: header, planes, force plane.
func (c *core) snapshot() *Checkpoint {
	return &Checkpoint{
		Kind:       c.kind,
		TimePS:     c.now,
		Evals:      c.cellEvals,
		design:     c.flat.Name,
		nets:       len(c.flat.Nets),
		cells:      len(c.flat.Cells),
		netPlanes:  clonePlanes(c.netPlanes),
		forced:     slices.Clone(c.forced),
		cellPlanes: clonePlanes(c.cellPlanes),
	}
}

// restore is the wholesale half of Engine.Restore every engine shares:
// validate, copy every plane, load the queue, reset clock and eval
// counter, drop all callbacks, and make ck the baseline RestoreDelta
// rewrites against.
func (c *core) restore(ck *Checkpoint) error {
	if err := ck.check(c.kind, c.flat); err != nil {
		return err
	}
	for i, p := range c.netPlanes {
		copy(p, ck.netPlanes[i])
	}
	copy(c.forced, ck.forced)
	for i, p := range c.cellPlanes {
		copy(p, ck.cellPlanes[i])
	}
	for _, nid := range c.dirtyNets {
		c.netDirty[nid] = false
	}
	for _, cid := range c.dirtyCells {
		c.cellDirty[cid] = false
	}
	c.q.load(ck)
	c.resume(ck)
	return nil
}

// restoreDirty is the shared half of Engine.RestoreDelta: with ck the
// checkpoint last restored, rewriting the entries recorded dirty since is
// provably equal to restore's wholesale copy, because every mutation path
// records its target in the dirty sets; the queue rewinds its cursor,
// revives the run slots cancelled since and drops every pushed event
// (queue.reload).
func (c *core) restoreDirty(ck *Checkpoint) {
	for i, p := range c.netPlanes {
		from := ck.netPlanes[i]
		for _, nid := range c.dirtyNets {
			p[nid] = from[nid]
		}
	}
	for _, nid := range c.dirtyNets {
		c.forced[nid] = ck.forced[nid]
		c.netDirty[nid] = false
	}
	for i, p := range c.cellPlanes {
		from := ck.cellPlanes[i]
		for _, cid := range c.dirtyCells {
			p[cid] = from[cid]
		}
	}
	for _, cid := range c.dirtyCells {
		c.cellDirty[cid] = false
	}
	c.q.reload()
	c.resume(ck)
}

// resume ends either restore flavour: empty dirty sets, ck's clock, eval
// counter and next sequence number, no callbacks.
func (c *core) resume(ck *Checkpoint) {
	c.dirtyNets = c.dirtyNets[:0]
	c.dirtyCells = c.dirtyCells[:0]
	c.lastRestored = ck
	c.now = ck.TimePS
	c.cellEvals = ck.Evals
	c.q.seq = ck.seqBase
	if c.kind == KindLevel {
		c.q.seq = uint64(len(ck.evs))
	}
	c.dropCallbacks()
}

// matches is the plane half of Engine.MatchesCheckpoint: same kind, same
// instant, same planes. Callbacks and the eval counter are observer state
// and are ignored.
func (c *core) matches(ck *Checkpoint) bool {
	if ck == nil || ck.Kind != c.kind || c.now != ck.TimePS {
		return false
	}
	for i, p := range c.netPlanes {
		if i == c.heldPlane {
			// A held plane (LevelSim's forcedVal) is live state only while
			// the net is forced: propagate reads it only under forced[nid],
			// and any future force overwrites it before the next read.
			// Comparing it on released nets would keep a run that has fully
			// re-converged onto the golden trajectory unprunable forever
			// after a SET pulse — the value the pulse parked there is
			// unobservable.
			for nid, f := range c.forced {
				if f && p[nid] != ck.netPlanes[i][nid] {
					return false
				}
			}
		} else if !slices.Equal(p, ck.netPlanes[i]) {
			return false
		}
	}
	if !slices.Equal(c.forced, ck.forced) {
		return false
	}
	for i, p := range c.cellPlanes {
		if !slices.Equal(p, ck.cellPlanes[i]) {
			return false
		}
	}
	return true
}

// MatchesCheckpoint implements Engine: it reports whether the engine's
// present state is indistinguishable from the checkpoint — same time, same
// net and sequential values, same force state, and the same queued data
// events in the same tie-break order. When true, the engine's future
// evolution is bit-identical to that of any engine resumed from the
// checkpoint, which is what lets the campaign prune a faulty run that has
// re-converged to the golden trajectory.
func (c *core) MatchesCheckpoint(ck *Checkpoint) bool {
	return c.matches(ck) && c.q.matches(ck)
}

// snapPhase is the phase a snapshot taken now records for e (see
// Checkpoint.evs).
func (s *EventSim) snapPhase(e *event) uint32 {
	if s.running && e.phase >= s.phase {
		return 1
	}
	return 0
}

// Snapshot implements Engine.
func (s *EventSim) Snapshot() *Checkpoint {
	ck := s.snapshot()
	ck.seqBase = s.q.seq
	live := s.q.sorted(s.snapPhase)
	ck.evs = make([]event, len(live))
	ck.pendingIdx = make([]int32, len(s.pending))
	for i := range ck.pendingIdx {
		ck.pendingIdx[i] = -1
	}
	for i, en := range live {
		e := s.q.evs[en.idx]
		e.phase, e.next = en.phase, 0
		ck.evs[i] = e
		if e.kind == actNet && s.pending[e.net] == en.idx {
			ck.pendingIdx[e.net] = int32(i)
		}
	}
	return ck
}

// Restore implements Engine. It resets the engine wholesale to the
// checkpointed instant: values, forces, sequential state, the eval counter
// and the queued data events. All registered callbacks are discarded — the
// caller re-registers the observers the resumed run needs before calling
// Run again.
func (s *EventSim) Restore(ck *Checkpoint) error {
	if err := s.restore(ck); err != nil {
		return err
	}
	copy(s.pending, ck.pendingIdx)
	s.phase, s.running = 0, false
	return nil
}

// RestoreDelta implements Engine. When ck is the checkpoint this engine
// most recently restored, only the nets and cells touched since that
// restore are rewritten, and the queue rewinds to ck's entries: untouched
// state is provably already equal to a full Restore's output (every
// mutation path records its target in the dirty sets), and a restored
// queue slot never changes but for its cancelled flag. Any other
// checkpoint falls back to Restore.
func (s *EventSim) RestoreDelta(ck *Checkpoint) error {
	if s.lastRestored != ck {
		return s.Restore(ck)
	}
	// A pending transition changes only with its net dirty; checkpoint
	// event i sits in run slot i.
	for _, nid := range s.dirtyNets {
		s.pending[nid] = ck.pendingIdx[nid]
	}
	s.restoreDirty(ck)
	s.phase, s.running = 0, false
	return nil
}

// Snapshot implements Engine. The queue flattens in ascending time, each
// step's actions in their original order; callbacks belong to the
// producing run's observers and leave no trace.
func (s *LevelSim) Snapshot() *Checkpoint {
	ck := s.snapshot()
	live := s.q.sorted(nil)
	ck.evs = make([]event, len(live))
	for i, en := range live {
		e := s.q.evs[en.idx]
		e.seq, e.next = uint64(i), 0
		ck.evs[i] = e
	}
	return ck
}

// Restore implements Engine. See EventSim.Restore for the contract.
func (s *LevelSim) Restore(ck *Checkpoint) error { return s.restore(ck) }

// RestoreDelta implements Engine. See EventSim.RestoreDelta for the
// contract.
func (s *LevelSim) RestoreDelta(ck *Checkpoint) error {
	if s.lastRestored != ck {
		return s.Restore(ck)
	}
	s.restoreDirty(ck)
	return nil
}
