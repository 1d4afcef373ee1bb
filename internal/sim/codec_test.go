package sim

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/logic"
	"repro/internal/wire"
)

// produceCheckpoint runs the counter testbench on a fresh engine and
// snapshots it mid-flight, mid-cycle, so the checkpoint carries a live
// schedule (remaining stimulus, clock edges).
func produceCheckpoint(t testing.TB, mk func() Engine) *Checkpoint {
	return snapshotAt(t, mk, 4500)
}

// pastEdge is 1 ps past a rising clock edge, the instant the golden grid
// snapshots at: on EventSim the checkpoint carries the edge's in-flight
// inertial transitions as phase-1 entries with pending indexes.
const pastEdge = 3*period + 1

// snapshotAt runs the counter testbench on a fresh engine and snapshots
// it at time at.
func snapshotAt(t testing.TB, mk func() Engine, at uint64) *Checkpoint {
	t.Helper()
	const last = 12
	prod := mk()
	setupCounter(t, prod, last*period)
	var ck *Checkpoint
	prod.At(at, func() { ck = prod.Snapshot() })
	if err := prod.Run(last * period); err != nil {
		t.Fatal(err)
	}
	if ck == nil {
		t.Fatal("snapshot callback never fired")
	}
	return ck
}

// snapshotSchedule runs the counter workload once, snapshotting at 1ps
// past every rising edge from cycle 2 to `last-2`, and returns the
// checkpoints in ascending time order.
func snapshotSchedule(t *testing.T, e Engine, last int) []*Checkpoint {
	t.Helper()
	setupCounter(t, e, uint64(last)*period)
	var cks []*Checkpoint
	for c := 2; c <= last-2; c++ {
		e.At(uint64(c)*period+1, func() {
			cks = append(cks, e.Snapshot())
		})
	}
	if err := e.Run(uint64(last) * period); err != nil {
		t.Fatal(err)
	}
	return cks
}

func encode(t testing.TB, ck *Checkpoint) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeCheckpoint(&buf, ck); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func decode(t *testing.T, blob []byte) *Checkpoint {
	t.Helper()
	dec, err := DecodeCheckpoint(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	return dec
}

func TestCodecRoundTripBitIdentity(t *testing.T) {
	// A decoded checkpoint restored onto a fresh engine must leave the
	// engine in a state indistinguishable from restoring the in-memory
	// original — MatchesCheckpoint in both directions, and a bit-identical
	// resumed tail.
	for name, mk := range engines(t) {
		t.Run(name, func(t *testing.T) {
			const last = 12
			ck := produceCheckpoint(t, mk)
			dec := decode(t, encode(t, ck))

			if dec.Kind != ck.Kind || dec.TimePS != ck.TimePS || dec.Evals != ck.Evals {
				t.Fatalf("decoded header (%s, %d, %d) != original (%s, %d, %d)",
					dec.Kind, dec.TimePS, dec.Evals, ck.Kind, ck.TimePS, ck.Evals)
			}

			fromDec := mk()
			if err := fromDec.Restore(dec); err != nil {
				t.Fatal(err)
			}
			if !fromDec.MatchesCheckpoint(ck) {
				t.Fatal("engine restored from decoded blob does not match the in-memory checkpoint")
			}
			fromOrig := mk()
			if err := fromOrig.Restore(ck); err != nil {
				t.Fatal(err)
			}
			if !fromOrig.MatchesCheckpoint(dec) {
				t.Fatal("engine restored from the in-memory checkpoint does not match the decoded blob")
			}

			// The resumed tails must agree sample for sample.
			gotDec := sampleInto(t, fromDec, 5, last)
			gotOrig := sampleInto(t, fromOrig, 5, last)
			if err := fromDec.Run(last * period); err != nil {
				t.Fatal(err)
			}
			if err := fromOrig.Run(last * period); err != nil {
				t.Fatal(err)
			}
			if len(*gotDec) != len(*gotOrig) {
				t.Fatalf("tail lengths differ: %d vs %d", len(*gotDec), len(*gotOrig))
			}
			for i := range *gotOrig {
				if (*gotDec)[i] != (*gotOrig)[i] {
					t.Fatalf("tail sample %d: decoded %s vs original %s", i, (*gotDec)[i], (*gotOrig)[i])
				}
			}
		})
	}
}

func TestCodecRestoreDeltaBitIdentity(t *testing.T) {
	// Restoring a reused engine must work against a decoded checkpoint
	// exactly as it does against the producing snapshot: restore the
	// decoded blob, pollute the engine with a full faulty run, restore
	// again, and the engine must again match the in-memory original.
	for name, mk := range engines(t) {
		t.Run(name, func(t *testing.T) {
			const last = 12
			ck := produceCheckpoint(t, mk)
			dec := decode(t, encode(t, ck))

			eng := mk()
			if err := eng.Restore(dec); err != nil {
				t.Fatal(err)
			}
			n1 := netID(t, eng.Flat(), "n1")
			eng.ScheduleForce(5100, n1, 1)
			if err := eng.Run(last * period); err != nil {
				t.Fatal(err)
			}
			if err := eng.Restore(dec); err != nil {
				t.Fatal(err)
			}
			if !eng.MatchesCheckpoint(ck) {
				t.Fatal("re-restored engine does not match the in-memory checkpoint")
			}
		})
	}
}

func TestCodecDeterministic(t *testing.T) {
	for name, mk := range engines(t) {
		t.Run(name, func(t *testing.T) {
			ck := produceCheckpoint(t, mk)
			a, b := encode(t, ck), encode(t, ck)
			if !bytes.Equal(a, b) {
				t.Fatal("encoding the same checkpoint twice produced different bytes")
			}
			// Encoding the decoded form must reproduce the blob: the codec
			// is a fixed point, which content addressing relies on.
			c := encode(t, decode(t, a))
			if !bytes.Equal(a, c) {
				t.Fatal("re-encoding a decoded checkpoint changed the bytes")
			}
		})
	}
}

func TestCodecRejectsTruncatedBlob(t *testing.T) {
	for name, mk := range engines(t) {
		t.Run(name, func(t *testing.T) {
			blob := encode(t, produceCheckpoint(t, mk))
			for cut := 0; cut < len(blob); cut += 7 {
				if _, err := DecodeCheckpoint(bytes.NewReader(blob[:cut])); err == nil {
					t.Fatalf("decode accepted a blob truncated to %d of %d bytes", cut, len(blob))
				}
			}
		})
	}
}

func TestCodecRejectsCorruptHeader(t *testing.T) {
	blob := encode(t, produceCheckpoint(t, engines(t)["EventSim"]))

	bad := append([]byte(nil), blob...)
	bad[0] ^= 0xff // magic
	if _, err := DecodeCheckpoint(bytes.NewReader(bad)); err == nil {
		t.Error("decode accepted a blob with corrupt magic")
	}

	bad = append([]byte(nil), blob...)
	bad[4] = 99 // version
	if _, err := DecodeCheckpoint(bytes.NewReader(bad)); err == nil {
		t.Error("decode accepted a blob with an unknown version")
	}

	bad = append([]byte(nil), blob...)
	bad[5] = 7 // kind tag
	if _, err := DecodeCheckpoint(bytes.NewReader(bad)); err == nil {
		t.Error("decode accepted a blob with an unknown kind tag")
	}
}

func TestCodecRejectsMismatchedDesign(t *testing.T) {
	ck := produceCheckpoint(t, engines(t)["EventSim"])
	dec := decode(t, encode(t, ck))
	if err := dec.CheckDesign(counterDesign(t)); err != nil {
		t.Fatalf("decoded checkpoint rejected its own design: %v", err)
	}
	other := counterDesign(t)
	other.Name = "not-the-counter"
	if err := dec.CheckDesign(other); err == nil {
		t.Fatal("decoded checkpoint accepted a mismatched design")
	}
}

// TestCodecRejectsUnorderedQueue pins the decoder to what a restore
// assumes of an EventSim queue: the list is replayed in place, so it must
// be strictly ascending in (t, phase, seq), every seq below seqBase.
func TestCodecRejectsUnorderedQueue(t *testing.T) {
	ck := produceCheckpoint(t, engines(t)["EventSim"])
	if len(ck.evs) < 2 {
		t.Fatalf("want a queue of at least two entries, have %d", len(ck.evs))
	}
	for _, c := range []struct {
		name  string
		craft func(q []event, seqBase uint64)
	}{
		{"same time, seq inverted", func(q []event, _ uint64) {
			q[1].t, q[1].phase = q[0].t, q[0].phase
			q[0].seq, q[1].seq = max(q[0].seq, q[1].seq), min(q[0].seq, q[1].seq)
		}},
		{"same time, phase inverted", func(q []event, _ uint64) {
			q[1].t, q[0].phase, q[1].phase = q[0].t, 1, 0
		}},
		{"seq at seqBase", func(q []event, seqBase uint64) {
			q[len(q)-1].seq = seqBase
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			bad := decode(t, encode(t, ck))
			c.craft(bad.evs, bad.seqBase)
			_, err := DecodeCheckpoint(bytes.NewReader(encode(t, bad)))
			if err == nil || !strings.Contains(err.Error(), "(t, phase, seq) order") {
				t.Fatalf("decode of an EventSim queue out of (t, phase, seq) order: err %v", err)
			}
		})
	}
}

// TestCodecRejectsKeyedLevelQueue pins the decoder to what a LevelSim
// snapshot writes: every queue entry's seq and phase are zero, because a
// restore keys LevelSim entries by list position. A blob carrying any
// other value would decode to the same checkpoint as its zeroed form and
// so could not re-encode to itself.
func TestCodecRejectsKeyedLevelQueue(t *testing.T) {
	ck := produceCheckpoint(t, engines(t)["LevelSim"])
	blob := encode(t, ck)
	// A LevelSim blob ends with its queue entries; rewrite them by hand.
	entries := func(seq uint64, phase byte) []byte {
		var w wire.Writer
		for _, e := range ck.evs {
			w.Uvarint(e.t)
			w.Uvarint(seq)
			w.Byte(phase)
			w.Byte(byte(e.kind))
			w.Int(int(e.net))
			w.Int(int(e.cellID))
			w.Byte(byte(e.val))
		}
		return w.Bytes()
	}
	zero := entries(0, 0)
	head, ok := bytes.CutSuffix(blob, zero)
	if !ok || len(ck.evs) == 0 {
		t.Fatalf("blob does not end with its %d queue entries", len(ck.evs))
	}
	for _, c := range []struct {
		name  string
		seq   uint64
		phase byte
	}{{"seq 1", 1, 0}, {"phase 1", 0, 1}} {
		t.Run(c.name, func(t *testing.T) {
			bad := append(slices.Clone(head), entries(c.seq, c.phase)...)
			if _, err := DecodeCheckpoint(bytes.NewReader(bad)); err == nil {
				t.Fatal("decode accepted a LevelSim queue entry with a nonzero seq or phase")
			}
		})
	}
}

// TestCheckpointWireDigests pins the checkpoint wire bytes across
// commits, on both engines, at a mid-cycle instant and at two instants
// 1 ps past a rising edge (in-flight transitions on EventSim): the
// sha256 of the encoded snapshot, and of the snapshot an engine takes
// right after restoring the decoded blob. Content addressing in the
// artifact lake keys golden artifacts by these bytes, so a change here
// is a format change.
func TestCheckpointWireDigests(t *testing.T) {
	want := map[string]map[uint64][2]string{
		"EventSim": {
			4500: {"22c8cadbeb47f2f367afc3006afab0001660046748df325e0b88a6d8a0752a1e",
				"22c8cadbeb47f2f367afc3006afab0001660046748df325e0b88a6d8a0752a1e"},
			pastEdge: {"00ae7d3f541cec83ef3eee192a861b526c58629253dcb9c0ece9d015077cc31d",
				"4dbfe0241fc44a2f665da02c04c14a832f71f807b46a80d311501e5a43bd5fa6"},
			7*period + 1: {"369c61c63294eec61f52d75233d8e6d4612c82448ecbfcb67cb2c7530e5ff6c4",
				"2a0fdfe780f86fc2778cdedfd8775bfa522481d7eb05622a07abe9972cbf07b3"},
		},
		"LevelSim": {
			4500: {"0bc546e8fc22d500e702a5a56d7b2db7cee78057cd38f6680a10ca85fbbc81ef",
				"0bc546e8fc22d500e702a5a56d7b2db7cee78057cd38f6680a10ca85fbbc81ef"},
			pastEdge: {"c66a968527b97a7918c709b59ba6d22d4dace43ee2e816bc979e8d10534efa6f",
				"c66a968527b97a7918c709b59ba6d22d4dace43ee2e816bc979e8d10534efa6f"},
			7*period + 1: {"7bddfdf412914aec692f8f4f4bd8319acdba82b09d28bb4bca946e8e085426be",
				"7bddfdf412914aec692f8f4f4bd8319acdba82b09d28bb4bca946e8e085426be"},
		},
	}
	for name, mk := range engines(t) {
		for at, digests := range want[name] {
			blob := encode(t, snapshotAt(t, mk, at))
			eng := mk()
			if err := eng.Restore(decode(t, blob)); err != nil {
				t.Fatal(err)
			}
			again := encode(t, eng.Snapshot())
			for i, b := range [][]byte{blob, again} {
				if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != digests[i] {
					t.Errorf("%s at %d ps, encode %d: sha256 %s, want %s", name, at, i, got, digests[i])
				}
			}
		}
	}
}

// TestDecodedScheduleRestores walks the path an adopting process takes
// with a golden artifact: decode every checkpoint of the schedule and
// restore from it. A restore from a decoded checkpoint, into a fresh or a
// polluted engine, must be indistinguishable from restoring the producing
// run's in-memory snapshot, and a clean resume must land on the next
// snapshot.
func TestDecodedScheduleRestores(t *testing.T) {
	const last = 24
	for name, mk := range engines(t) {
		t.Run(name, func(t *testing.T) {
			plain := snapshotSchedule(t, mk(), last)
			eng := mk()
			n1 := netID(t, eng.Flat(), "n1")
			for i, ck := range plain {
				dec := decode(t, encode(t, ck))
				if err := eng.Restore(dec); err != nil {
					t.Fatal(err)
				}
				if !eng.MatchesCheckpoint(ck) {
					t.Fatalf("checkpoint %d: restore from the decoded form does not match the original", i)
				}
				// Pollute the engine with a faulty tail, then repair it
				// with a second restore.
				eng.ScheduleForce(ck.TimePS+100, n1, logic.L1)
				eng.ScheduleRelease(ck.TimePS+700, n1)
				if err := eng.Run(last * period); err != nil {
					t.Fatal(err)
				}
				if err := eng.Restore(dec); err != nil {
					t.Fatal(err)
				}
				if !eng.MatchesCheckpoint(ck) {
					t.Fatalf("checkpoint %d: re-restore from the decoded form does not match the original", i)
				}
				// A clean resume must land exactly on the next snapshot.
				if i+1 < len(plain) {
					if err := eng.Run(plain[i+1].TimePS); err != nil {
						t.Fatal(err)
					}
					if !eng.MatchesCheckpoint(plain[i+1]) {
						t.Fatalf("clean resume from decoded checkpoint %d does not reach checkpoint %d", i, i+1)
					}
				}
			}
		})
	}
}
