package sim

import (
	"fmt"
	"io"

	"repro/internal/wire"
)

// Versioned binary wire codec for Checkpoint. The format is
// deterministic: encoding the same checkpoint always yields the same
// bytes, which is what makes checkpoints content-addressable in the
// artifact lake. Decoding is strict — a truncated, padded or corrupted
// blob is rejected with an error, never silently accepted; every enum and
// index is validated before use so a hostile blob cannot make Restore
// index out of bounds; and every count is checked against the bytes that
// remain before anything is sized by it (wire.Reader.Count), so decoding
// allocates in proportion to the blob, not to what the blob claims.
//
// Layout (version 2, one body for both engines): header — magic, version,
// kind tag, time, evals, design, nets, cells, seqBase; the kind's net
// planes, the force plane, the kind's cell planes (planeLayout), each a
// run of nets or cells bytes; the queue as count + entries (t, seq,
// phase, kind, net, cell, val), LevelSim's with seq and phase written as
// 0 because a restore keys them by position; and, for EventSim, one
// pending index (+1, 0 for none) per net. Version 1 blobs — two
// per-engine bodies — are refused, which callers holding a golden
// artifact turn into a local build and republish.

const (
	ckptMagic   uint32 = 0x534b5031 // "SKP1"
	ckptVersion byte   = 2

	// queuedMinBytes is the shortest encoding of one queue entry: two
	// one-byte varints (t, seq), phase, kind, two more (net, cellID), val.
	queuedMinBytes = 7
)

// kindTags are the wire bytes of the engine kinds.
var kindTags = map[EngineKind]byte{KindEvent: 1, KindLevel: 2}

// EncodeCheckpoint writes ck to w in the versioned binary wire format.
func EncodeCheckpoint(w io.Writer, ck *Checkpoint) error {
	if ck == nil {
		return fmt.Errorf("sim: encode nil checkpoint")
	}
	tag, ok := kindTags[ck.Kind]
	if !ok {
		return fmt.Errorf("sim: encode checkpoint of unknown kind %q", ck.Kind)
	}
	var e wire.Writer
	e.U32(ckptMagic)
	e.Byte(ckptVersion)
	e.Byte(tag)
	e.U64(ck.TimePS)
	e.U64(ck.Evals)
	e.String(ck.design)
	e.Int(ck.nets)
	e.Int(ck.cells)
	e.U64(ck.seqBase)
	for _, p := range ck.netPlanes {
		e.Values(p)
	}
	e.Bools(ck.forced)
	for _, p := range ck.cellPlanes {
		e.Values(p)
	}
	e.Int(len(ck.evs))
	for i := range ck.evs {
		q := &ck.evs[i]
		seq := q.seq
		if ck.Kind == KindLevel {
			seq = 0
		}
		e.Uvarint(q.t)
		e.Uvarint(seq)
		e.Byte(byte(q.phase))
		e.Byte(byte(q.kind))
		e.Int(int(q.net))
		e.Int(int(q.cellID))
		e.Byte(byte(q.val))
	}
	for _, idx := range ck.pendingIdx {
		e.Int(int(idx) + 1)
	}
	_, err := w.Write(e.Bytes())
	return err
}

// DecodeCheckpoint reads one checkpoint in the wire format produced by
// EncodeCheckpoint; r must hold exactly one blob. The returned checkpoint
// owns all of its storage.
func DecodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("sim: read checkpoint blob: %w", err)
	}
	d := wire.NewReader("sim: checkpoint blob", raw)
	if m := d.U32(); d.Err() == nil && m != ckptMagic {
		d.Fail("bad magic %#x", m)
	}
	if v := d.Byte(); d.Err() == nil && v != ckptVersion {
		d.Fail("unsupported codec version %d (want %d)", v, ckptVersion)
	}
	tag := d.Byte()
	ck := &Checkpoint{
		TimePS: d.U64(),
		Evals:  d.U64(),
		design: d.String(),
		nets:   d.Count(1),
		cells:  d.Count(1),
	}
	for kind, t := range kindTags {
		if t == tag {
			ck.Kind = kind
		}
	}
	if d.Err() == nil && ck.Kind == "" {
		d.Fail("unknown kind tag %d", tag)
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	layout := planeLayout[ck.Kind]
	ck.seqBase = d.U64()
	for i := 0; i < layout.net; i++ {
		ck.netPlanes = append(ck.netPlanes, d.Values(ck.nets))
	}
	ck.forced = d.Bools(ck.nets)
	for i := 0; i < layout.cell; i++ {
		ck.cellPlanes = append(ck.cellPlanes, d.Values(ck.cells))
	}
	n := d.Count(queuedMinBytes)
	if d.Err() != nil {
		return nil, d.Err()
	}
	ck.evs = make([]event, n)
	for i := range ck.evs {
		q := &ck.evs[i]
		q.t = d.Uvarint()
		q.seq = d.Uvarint()
		q.phase = uint32(d.Byte())
		q.kind = actKind(d.Byte())
		// Int refuses anything above MaxInt32, so both fit an int32.
		net, cell := d.Int(), d.Int()
		q.net, q.cellID = int32(net), int32(cell)
		q.val = d.Value()
		switch {
		case d.Err() != nil:
		case q.phase > 1:
			d.Fail("queue entry %d has invalid phase %d", i, q.phase)
		case ck.Kind == KindLevel && (q.seq != 0 || q.phase != 0):
			// LevelSim snapshots write both as zero; anything else would
			// not re-encode to the same bytes.
			d.Fail("LevelSim queue entry %d has seq %d, phase %d (want 0, 0)", i, q.seq, q.phase)
		case q.kind >= actFunc || q.kind == actNet && ck.Kind != KindEvent:
			d.Fail("queue entry %d has invalid kind %d", i, q.kind)
		case net >= ck.nets || cell >= ck.cells && cell != 0:
			d.Fail("queue entry %d targets out-of-range net/cell", i)
		case i > 0 && q.t < ck.evs[i-1].t:
			d.Fail("queue entry %d is out of time order", i)
		case ck.Kind == KindEvent && (q.seq >= ck.seqBase || i > 0 && !less(ck.evs[i-1].key(), q.key())):
			// A restore replays EventSim's list in place, so it must be
			// strictly ascending in (t, phase, seq) and below seqBase.
			d.Fail("queue entry %d is out of (t, phase, seq) order", i)
		}
		if d.Err() != nil {
			return nil, d.Err()
		}
		if ck.Kind == KindLevel {
			q.seq = uint64(i)
		}
	}
	if ck.Kind == KindEvent {
		ck.pendingIdx = make([]int32, ck.nets)
		for nid := range ck.pendingIdx {
			idx := d.Int() - 1
			if d.Err() == nil && idx >= 0 &&
				(idx >= n || ck.evs[idx].kind != actNet || int(ck.evs[idx].net) != nid) {
				d.Fail("net %d's pending index %d is not a transition of that net", nid, idx)
			}
			ck.pendingIdx[nid] = int32(idx)
		}
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return ck, nil
}
