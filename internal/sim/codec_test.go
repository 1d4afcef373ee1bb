package sim

import (
	"bytes"
	"strings"
	"testing"
)

// produceCheckpoint runs the counter testbench on a fresh engine and
// snapshots it mid-flight, mid-cycle, so the checkpoint carries a live
// schedule (remaining stimulus, clock edges, possibly in-flight inertial
// transitions).
func produceCheckpoint(t testing.TB, mk func() Engine) *Checkpoint {
	t.Helper()
	const last = 12
	prod := mk()
	setupCounter(t, prod, last*period)
	var ck *Checkpoint
	prod.At(4500, func() { ck = prod.Snapshot() })
	if err := prod.Run(last * period); err != nil {
		t.Fatal(err)
	}
	if ck == nil {
		t.Fatal("snapshot callback never fired")
	}
	return ck
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
	// The dirty-set RestoreDelta rewrite must work against a decoded
	// checkpoint exactly as it does against the producing snapshot: restore
	// the decoded blob, pollute the engine with a full faulty run, delta-
	// restore, and the engine must again match the in-memory original.
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
			if err := eng.RestoreDelta(dec); err != nil {
				t.Fatal(err)
			}
			if !eng.MatchesCheckpoint(ck) {
				t.Fatal("delta-restored engine does not match the in-memory checkpoint")
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
	if len(ck.queue) < 2 || len(ck.tail) != 0 {
		t.Fatalf("want an owned queue of at least two entries, have %d + %d", len(ck.queue), len(ck.tail))
	}
	for _, c := range []struct {
		name  string
		craft func(q []queued, seqBase uint64)
	}{
		{"same time, seq inverted", func(q []queued, _ uint64) {
			q[1].t, q[1].phase = q[0].t, q[0].phase
			q[0].seq, q[1].seq = max(q[0].seq, q[1].seq), min(q[0].seq, q[1].seq)
		}},
		{"same time, phase inverted", func(q []queued, _ uint64) {
			q[1].t, q[0].phase, q[1].phase = q[0].t, 1, 0
		}},
		{"seq at seqBase", func(q []queued, seqBase uint64) {
			q[len(q)-1].seq = seqBase
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			bad := decode(t, encode(t, ck))
			c.craft(bad.queue, bad.seqBase)
			_, err := DecodeCheckpoint(bytes.NewReader(encode(t, bad)))
			if err == nil || !strings.Contains(err.Error(), "(t, phase, seq) order") {
				t.Fatalf("decode of an EventSim queue out of (t, phase, seq) order: err %v", err)
			}
		})
	}
}
