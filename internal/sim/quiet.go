package sim

import (
	"cmp"
	"slices"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// The quiet-divergence proof: concurrent fault simulation (Ulrich & Baker,
// 1973), checked against a recorded golden run instead of simulated beside
// it. Take a faulty EventSim run that, at a golden checkpoint, differs from
// golden only in some storage cells and the Q/QN nets they drive: the same
// queued actions, the same forces, no queued transition on a divergent net
// (QuietDiff). It evolves exactly as golden does with those cells holding
// their faulty values for as long as, at every golden net change:
//
//   - the change does not land on a divergent net;
//   - no struck cell would store a state, in either machine;
//   - every other cell reading a divergent net reacts as it does in golden:
//     the same LUT output, or for a storage cell the same stored state.
//
// Every cell outside that fan-out reads only nets equal in both machines
// and reacts identically, so both machines schedule the same actions in
// the same order and the induction closes. The golden run's change log
// says what every input of the fan-out does next, so Prove walks the log
// instead of simulating the tail. Reaching the end of the log means the
// divergence stays where it is to plan end; failing at entry p means the
// faulty run at any golden checkpoint taken at or before p is that
// checkpoint plus the diff (Patch).

// ChangeLog is a golden EventSim run's record of every committed net
// change, in commit order, with a per-net index of log positions. One
// recording engine writes it; once indexed it is read-only and safe for
// concurrent Prove calls.
type ChangeLog struct {
	prog *netlist.Program
	// entries holds one committed change per entry, the net shifted left
	// by two and its new value in the low two bits: four bytes, where a
	// struct would take eight and cost the golden run measurably more
	// in allocation.
	entries []uint32
	// Net n changed at log positions pos[at[n]:at[n+1]], ascending.
	at, pos []int32
}

// add records that net nid took value v.
func (l *ChangeLog) add(nid int32, v logic.V) {
	l.entries = append(l.entries, uint32(nid)<<2|uint32(v))
}

// RecordChanges starts recording every net change the engine commits into
// a new log and returns it. Call it on a fresh engine, before Run.
func (s *EventSim) RecordChanges() *ChangeLog {
	s.log = &ChangeLog{prog: s.prog}
	return s.log
}

// Len is the number of changes recorded so far: the log offset of the
// present instant.
func (l *ChangeLog) Len() int { return len(l.entries) }

// Entry returns log entry i: the net that changed and its new value.
func (l *ChangeLog) Entry(i int) (net int, v logic.V) {
	e := l.entries[i]
	return int(e >> 2), logic.V(e & 3)
}

// Index builds the per-net index Prove reads. Call it once, after the
// recording run.
func (l *ChangeLog) Index() {
	nets := len(l.prog.FanOff) - 1
	l.at = make([]int32, nets+1)
	for _, e := range l.entries {
		l.at[e>>2+1]++
	}
	for n := 0; n < nets; n++ {
		l.at[n+1] += l.at[n]
	}
	next := slices.Clone(l.at[:nets])
	l.pos = make([]int32, len(l.entries))
	for i, e := range l.entries {
		l.pos[next[e>>2]] = int32(i)
		next[e>>2]++
	}
}

// Diff is an engine's storage-only divergence from a checkpoint (see
// QuietDiff): the storage cells whose state differs and the nets they
// drive whose value differs, with the engine's values.
type Diff struct {
	Cells  []int32
	States []logic.V
	Nets   []int32
	Vals   []logic.V
}

// QuietDiff reports whether the engine differs from ck, an EventSim
// checkpoint of the present instant, by storage alone: the same queued
// data actions, the same forces, no queued flip, every differing net
// unforced and driven by a storage cell whose state differs, and no queued
// action on such a net. If so it returns that difference.
func (s *EventSim) QuietDiff(ck *Checkpoint) (Diff, bool) {
	var d Diff
	if ck == nil || ck.Kind != KindEvent || ck.TimePS != s.now {
		return d, false
	}
	// The plane scans come first: a divergence that has spread past
	// storage fails them early, before the costlier queue compare.
	for cid, v := range ck.cellPlanes[0] {
		if s.state[cid] != v {
			d.Cells = append(d.Cells, int32(cid))
			d.States = append(d.States, s.state[cid])
		}
	}
	cur, driven := ck.netPlanes[0], ck.netPlanes[1]
	for nid := range cur {
		if s.cur[nid] == cur[nid] && s.driven[nid] == driven[nid] {
			continue
		}
		drv := s.flat.Nets[nid].Driver
		if s.forced[nid] || drv < 0 || !slices.Contains(d.Cells, int32(drv)) {
			return d, false
		}
		d.Nets = append(d.Nets, int32(nid))
		d.Vals = append(d.Vals, s.cur[nid])
	}
	if !slices.Equal(s.forced, ck.forced) || !s.q.matches(ck) {
		return d, false
	}
	for i := range ck.evs {
		if e := &ck.evs[i]; e.kind == actFlip || slices.Contains(d.Nets, e.net) {
			return d, false
		}
	}
	return d, true
}

// Patch writes d's states and net values into the engine: after a Restore
// of a golden checkpoint, the faulty run's state at that instant.
func (s *EventSim) Patch(d Diff) {
	for i, cid := range d.Cells {
		s.state[cid] = d.States[i]
	}
	for i, nid := range d.Nets {
		s.cur[nid], s.driven[nid] = d.Vals[i], d.Vals[i]
	}
}

// Prove walks the log from off, the offset at which the golden run took
// ck, for a run that differs from ck by d alone, and returns the first
// position at which one of the three rules above fails: Len() when none
// does. It reads only the changes of the nets the struck cells and their
// outputs' direct fan-out read.
func (l *ChangeLog) Prove(ck *Checkpoint, off int, d Diff) int {
	p := l.prog
	// The affected cells: the struck ones first, then the rest of the
	// divergent nets' fan-out.
	cells := slices.Clone(d.Cells)
	for _, n := range d.Nets {
		for i := p.FanOff[n]; i < p.FanOff[n+1]; i++ {
			if c := p.FanCell[i]; !slices.Contains(cells, c) {
				cells = append(cells, c)
			}
		}
	}
	// The watched nets: the divergent ones first, then every other input of
	// an affected cell. ins[ci] is cell ci's inputs as watched indices;
	// reads lists every (watched net, cell, pin) in the engine's fan-out
	// order, which is by cell ID, then pin.
	type read struct{ net, cell, pin int32 }
	nets := slices.Clone(d.Nets)
	ins := make([][]int32, len(cells))
	var reads []read
	for ci, c := range cells {
		for j, n := range p.Ins(c) {
			k := slices.Index(nets, n)
			if k < 0 {
				k = len(nets)
				nets = append(nets, n)
			}
			ins[ci] = append(ins[ci], int32(k))
			reads = append(reads, read{int32(k), int32(ci), int32(j)})
		}
	}
	slices.SortFunc(reads, func(a, b read) int {
		return cmp.Or(cmp.Compare(a.net, b.net), cmp.Compare(cells[a.cell], cells[b.cell]), cmp.Compare(a.pin, b.pin))
	})
	first := make([]int, len(nets)+1)
	for _, r := range reads {
		first[r.net+1]++
	}
	for k := range nets {
		first[k+1] += first[k]
	}
	// Both machines' values of the watched nets and, for the affected
	// cells, the golden state; a struck cell's faulty state is d's.
	gold := make([]logic.V, len(nets))
	for k, n := range nets {
		gold[k] = ck.netPlanes[0][n]
	}
	faulty := slices.Clone(gold)
	copy(faulty, d.Vals)
	state := make([]logic.V, len(cells))
	for ci, c := range cells {
		state[ci] = ck.cellPlanes[0][c]
	}
	// The watched nets' changes from off on, in log order, each keyed by
	// its log position and its watched index.
	var todo []uint64
	for k, n := range nets {
		ps := l.pos[l.at[n]:l.at[n+1]]
		i, _ := slices.BinarySearch(ps, int32(off))
		for _, pos := range ps[i:] {
			todo = append(todo, uint64(pos)<<32|uint64(k))
		}
	}
	slices.Sort(todo)
	var gb, fb [4]logic.V
	for _, key := range todo {
		pos, k := int(key>>32), int(key&(1<<32-1))
		if k < len(d.Nets) {
			return pos // a golden change on a divergent net
		}
		old, v := gold[k], logic.V(l.entries[pos]&3)
		gold[k], faulty[k] = v, v
		for _, r := range reads[first[k]:first[k+1]] {
			def := p.Def(cells[r.cell])
			if def.LUT != nil {
				if lutOut(def.LUT, gold, ins[r.cell]) != lutOut(def.LUT, faulty, ins[r.cell]) {
					return pos
				}
				continue
			}
			gin, fin := gb[:0], fb[:0]
			for _, i := range ins[r.cell] {
				gin, fin = append(gin, gold[i]), append(fin, faulty[i])
			}
			gs, gok := seqReact(def, state[r.cell], gin, r.pin, old, v)
			if int(r.cell) < len(d.Cells) {
				if _, fok := seqReact(def, d.States[r.cell], fin, r.pin, old, v); gok || fok {
					return pos // a struck cell would store a state
				}
				continue
			}
			if fs, fok := seqReact(def, state[r.cell], fin, r.pin, old, v); fok != gok || fs != gs {
				return pos
			}
			state[r.cell] = gs
		}
	}
	return len(l.entries)
}

// lutOut is a LUT's entry for the inputs vals[ins[0]], vals[ins[1]], ...
func lutOut(lut []uint8, vals []logic.V, ins []int32) uint8 {
	idx := 0
	for i, k := range ins {
		idx |= int(vals[k]) << (2 * i)
	}
	return lut[idx]
}
