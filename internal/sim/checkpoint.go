package sim

import (
	"container/heap"
	"fmt"
	"slices"
	"sort"

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
// plane, and one time-ordered list of queued actions. Only rebuilding an
// engine's own queue structure from that list — EventSim's heap, LevelSim's
// agenda map — is per engine.
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

	// The queued data actions, in the order the engine would consume them,
	// are queue ++ tail. Snapshot fills queue only; ShareTails may split
	// off the suffix common with the preceding checkpoint of the same run
	// into tail, aliased into that checkpoint's storage (copy-on-write:
	// nothing mutates checkpoint slices after creation).
	queue, tail []queued

	// EventSim only: the sequence counter to resume from, and each net's
	// in-flight inertial transition as an index into queue ++ tail (-1 for
	// none).
	seqBase    uint64
	pendingIdx []int32
}

// queued is the value form of one queued data action. LevelSim orders by
// t alone (actions of one step apply in list order) and leaves seq and
// phase zero. For EventSim the list is sorted by (t, phase, seq), with
// phase normalized at snapshot time: 0 for events scheduled before the
// producing run began (the pre-scheduled stimulus), 1 for events the run
// created dynamically (pending inertial transitions). On restore, events a
// caller schedules before resuming Run take phase 0 with fresh sequence
// numbers, which slots them after the restored stimulus but before the
// restored in-flight transitions at equal times — exactly the order a cold
// run would have used.
type queued struct {
	t      uint64
	seq    uint64
	phase  uint32
	kind   actKind
	net    int
	cellID int
	val    logic.V
}

// at indexes the combined queue ++ tail list.
func (ck *Checkpoint) at(i int) queued {
	if i < len(ck.queue) {
		return ck.queue[i]
	}
	return ck.tail[i-len(ck.queue)]
}

// searchTime returns the index of the first queued action at or after t.
func (ck *Checkpoint) searchTime(t uint64) int {
	return sort.Search(ck.QueuedEvents(), func(i int) bool { return ck.at(i).t >= t })
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
	for i := 0; i < ck.QueuedEvents(); i++ {
		if q := ck.at(i); q.kind == actFlip {
			if err := validateSeqCell(f, q.cellID); err != nil {
				return fmt.Errorf("sim: checkpoint queue entry %d: %w", i, err)
			}
		}
	}
	return nil
}

// OwnedEvents reports how many queued data actions the checkpoint stores
// in memory it owns, i.e. excluding any suffix aliased into an earlier
// checkpoint by ShareTails. It exists so callers and tests can observe
// checkpoint memory without reaching into engine internals.
func (ck *Checkpoint) OwnedEvents() int {
	if ck == nil {
		return 0
	}
	return len(ck.queue)
}

// QueuedEvents reports the total logical queue length of the checkpoint,
// shared suffix included.
func (ck *Checkpoint) QueuedEvents() int {
	if ck == nil {
		return 0
	}
	return len(ck.queue) + len(ck.tail)
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
// validate, copy every plane, reset clock and eval counter, drop all
// callbacks, and make ck the baseline RestoreDelta rewrites against.
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
	c.resume(ck)
	return nil
}

// restoreDirty is the plane half of Engine.RestoreDelta: with ck the
// checkpoint last restored, rewriting the entries recorded dirty since is
// provably equal to restore's wholesale copy, because every mutation path
// records its target in the dirty sets.
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
	c.resume(ck)
}

// resume ends either restore flavour: empty dirty sets, ck's clock and
// eval counter, no callbacks.
func (c *core) resume(ck *Checkpoint) {
	c.dirtyNets = c.dirtyNets[:0]
	c.dirtyCells = c.dirtyCells[:0]
	c.lastRestored = ck
	c.now = ck.TimePS
	c.cellEvals = ck.Evals
	clear(c.cbs)
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

// snapPhase is the phase a snapshot taken now records for e (see queued).
func (s *EventSim) snapPhase(e *event) uint32 {
	if s.running && e.phase >= s.phase {
		return 1
	}
	return 0
}

// liveEvents returns the queued data events — cancelled entries and
// callbacks dropped — in queue order: sorted by (t, phase, seq), the phase
// being the one a snapshot would record when asSnapshot is set.
func (s *EventSim) liveEvents(asSnapshot bool) []*event {
	live := make([]*event, 0, len(s.evts))
	for _, e := range s.evts {
		if !e.cancelled && e.kind != actFunc {
			live = append(live, e)
		}
	}
	sort.Slice(live, func(i, j int) bool {
		a, b := live[i], live[j]
		if a.t != b.t {
			return a.t < b.t
		}
		pa, pb := a.phase, b.phase
		if asSnapshot {
			pa, pb = s.snapPhase(a), s.snapPhase(b)
		}
		if pa != pb {
			return pa < pb
		}
		return a.seq < b.seq
	})
	return live
}

// Snapshot implements Engine.
func (s *EventSim) Snapshot() *Checkpoint {
	ck := s.snapshot()
	ck.seqBase = s.seq
	live := s.liveEvents(true)
	ck.queue = make([]queued, len(live))
	ck.pendingIdx = make([]int32, len(s.pending))
	for i := range ck.pendingIdx {
		ck.pendingIdx[i] = -1
	}
	for i, e := range live {
		ck.queue[i] = queued{t: e.t, seq: e.seq, phase: s.snapPhase(e), kind: e.kind, net: e.net, cellID: e.cellID, val: e.val}
		if e.kind == actNet && s.pending[e.net] == e {
			ck.pendingIdx[e.net] = int32(i)
		}
	}
	return ck
}

// restoredEvent materializes entry i of ck's queue as a live event.
func (ck *Checkpoint) restoredEvent(i int) *event {
	q := ck.at(i)
	return &event{t: q.t, seq: q.seq, phase: q.phase, kind: q.kind, net: q.net, cellID: q.cellID, val: q.val, ckIdx: int32(i)}
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
	s.seq, s.phase, s.running = ck.seqBase, 0, false
	n := ck.QueuedEvents()
	s.evts = make(eventHeap, n)
	s.restoredEvts = slices.Grow(s.restoredEvts[:0], n)[:n]
	for i := range s.evts {
		s.evts[i] = ck.restoredEvent(i)
	}
	copy(s.restoredEvts, s.evts)
	for nid, idx := range ck.pendingIdx {
		s.pending[nid] = nil
		if idx >= 0 {
			s.pending[nid] = s.evts[idx]
		}
	}
	heap.Init(&s.evts)
	return nil
}

// RestoreDelta implements Engine. When ck is the checkpoint this engine
// most recently restored, only the nets, cells and queue entries touched
// since that restore are rewritten: untouched state and still-queued
// checkpoint events are provably already equal to a full Restore's output
// (every mutation path records its target in the dirty sets, and queue
// entries only leave by being consumed or cancelled — both tracked via
// their checkpoint index). Any other checkpoint falls back to Restore.
func (s *EventSim) RestoreDelta(ck *Checkpoint) error {
	if s.lastRestored != ck {
		return s.Restore(ck)
	}
	// Queue: retain live checkpoint events in place, drop post-restore
	// additions and cancelled entries, and re-materialize the consumed or
	// cancelled originals from the checkpoint.
	n := ck.QueuedEvents()
	s.present = slices.Grow(s.present[:0], n)[:n]
	clear(s.present)
	live := s.evts[:0]
	for _, ev := range s.evts {
		if ev.ckIdx >= 0 && !ev.cancelled {
			s.present[ev.ckIdx] = true
			live = append(live, ev)
		}
	}
	clear(s.evts[len(live):])
	s.evts = live
	for i := 0; i < n; i++ {
		if !s.present[i] {
			s.restoredEvts[i] = ck.restoredEvent(i)
			s.evts = append(s.evts, s.restoredEvts[i])
		}
	}
	heap.Init(&s.evts)
	// Pending transitions of dirty nets relink through the refreshed event
	// pointers; the planes follow.
	for _, nid := range s.dirtyNets {
		s.pending[nid] = nil
		if idx := ck.pendingIdx[nid]; idx >= 0 {
			s.pending[nid] = s.restoredEvts[idx]
		}
	}
	s.restoreDirty(ck)
	s.seq, s.phase, s.running = ck.seqBase, 0, false
	return nil
}

// MatchesCheckpoint implements Engine: it reports whether the engine's
// present state is indistinguishable from the checkpoint — same time, same
// net and sequential values, same force state, and the same queued data
// events in the same tie-break order. When true, the engine's future
// evolution is bit-identical to that of any engine resumed from the
// checkpoint, which is what lets the campaign prune a faulty run that has
// re-converged to the golden trajectory.
func (s *EventSim) MatchesCheckpoint(ck *Checkpoint) bool {
	if !s.matches(ck) {
		return false
	}
	live := s.liveEvents(false)
	if len(live) != ck.QueuedEvents() {
		return false
	}
	for i, e := range live {
		q := ck.at(i)
		if e.t != q.t || e.kind != q.kind || e.net != q.net || e.cellID != q.cellID || e.val != q.val {
			return false
		}
	}
	return true
}

// Snapshot implements Engine. The agenda flattens into the queue in
// ascending time, each step's actions in their original append order; a
// step holding only callbacks belongs to the producing run's observers and
// leaves no trace.
func (s *LevelSim) Snapshot() *Checkpoint {
	ck := s.snapshot()
	times := slices.Clone(s.times)
	slices.Sort(times)
	for _, t := range times {
		for _, a := range s.agenda[t] {
			if a.kind != actFunc {
				ck.queue = append(ck.queue, queued{t: t, kind: a.kind, net: a.net, cellID: a.cellID, val: a.val})
			}
		}
	}
	return ck
}

// step materializes the agenda step that starts at queue entry i — the run
// of entries sharing its time — and returns it with the index past it.
func (ck *Checkpoint) step(i int) ([]lsAction, int) {
	t, end := ck.at(i).t, i+1
	for end < ck.QueuedEvents() && ck.at(end).t == t {
		end++
	}
	acts := make([]lsAction, 0, end-i)
	for ; i < end; i++ {
		q := ck.at(i)
		acts = append(acts, lsAction{kind: q.kind, net: q.net, cellID: q.cellID, val: q.val})
	}
	return acts, end
}

// Restore implements Engine. See EventSim.Restore for the contract.
func (s *LevelSim) Restore(ck *Checkpoint) error {
	if err := s.restore(ck); err != nil {
		return err
	}
	s.cbNets = s.cbNets[:0]
	clear(s.touchedTimes)
	s.consumedTimes = s.consumedTimes[:0]
	clear(s.agenda)
	s.times = s.times[:0]
	for i := 0; i < ck.QueuedEvents(); {
		t := ck.at(i).t
		s.agenda[t], i = ck.step(i)
		s.times = append(s.times, t)
	}
	heap.Init(&s.times)
	return nil
}

// RestoreDelta implements Engine. See EventSim.RestoreDelta for the
// contract; for the levelized engine the agenda is repaired in place — only
// times the run consumed or a caller appended to are re-cloned from the
// checkpoint, leaving the untouched bulk of the restored schedule alone.
func (s *LevelSim) RestoreDelta(ck *Checkpoint) error {
	if s.lastRestored != ck {
		return s.Restore(ck)
	}
	s.restoreDirty(ck)
	s.cbNets = s.cbNets[:0]
	// A touched or consumed time is reset to the checkpoint's step there, or
	// removed when the checkpoint holds nothing at it; all other entries are
	// still the untouched clones the last full restore made.
	restoreTime := func(t uint64) {
		if i := ck.searchTime(t); i < ck.QueuedEvents() && ck.at(i).t == t {
			s.agenda[t], _ = ck.step(i)
		} else {
			delete(s.agenda, t)
		}
	}
	for t := range s.touchedTimes {
		restoreTime(t)
	}
	clear(s.touchedTimes)
	for _, t := range s.consumedTimes {
		restoreTime(t)
	}
	s.consumedTimes = s.consumedTimes[:0]
	s.times = s.times[:0]
	for t := range s.agenda {
		s.times = append(s.times, t)
	}
	heap.Init(&s.times)
	return nil
}

// MatchesCheckpoint implements Engine. See EventSim.MatchesCheckpoint.
func (s *LevelSim) MatchesCheckpoint(ck *Checkpoint) bool {
	if !s.matches(ck) {
		return false
	}
	// Every agenda step must equal the checkpoint's run of entries at its
	// time, data action for data action; steps are disjoint runs, so
	// matching as many entries as the checkpoint holds matches them all.
	n, seen := ck.QueuedEvents(), 0
	for t, acts := range s.agenda {
		i := ck.searchTime(t)
		for _, a := range acts {
			if a.kind == actFunc {
				continue
			}
			if i >= n {
				return false
			}
			q := ck.at(i)
			if q.t != t || q.kind != a.kind || q.net != a.net || q.cellID != a.cellID || q.val != a.val {
				return false
			}
			i++
			seen++
		}
	}
	return seen == n
}
