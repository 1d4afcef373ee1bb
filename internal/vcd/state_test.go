package vcd

import (
	"bytes"
	"testing"

	"repro/internal/logic"
)

// midStreamState builds a writer, streams a prefix of changes, and
// returns its mid-stream state snapshot.
func midStreamState(t testing.TB) *WriterState {
	t.Helper()
	var buf bytes.Buffer
	vw := NewWriter(&buf)
	for _, n := range []string{"clk", "q0", "q1"} {
		if err := vw.Declare(n, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := vw.WriteHeader("counter"); err != nil {
		t.Fatal(err)
	}
	if err := vw.Change(0, "clk", logic.Vec{logic.L0}); err != nil {
		t.Fatal(err)
	}
	if err := vw.Change(100, "q0", logic.Vec{logic.L1}); err != nil {
		t.Fatal(err)
	}
	if err := vw.Change(100, "q1", logic.Vec{logic.X}); err != nil {
		t.Fatal(err)
	}
	if err := vw.Flush(); err != nil {
		t.Fatal(err)
	}
	return vw.State()
}

func TestWriterStateCodecRoundTrip(t *testing.T) {
	st := midStreamState(t)
	var blob bytes.Buffer
	if err := st.Encode(&blob); err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeWriterState(bytes.NewReader(blob.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	// Resuming from the decoded state must produce a byte-identical tail
	// to resuming from the original.
	var a, b bytes.Buffer
	wa, wb := ResumeWriter(&a, st), ResumeWriter(&b, dec)
	for _, w := range []*Writer{wa, wb} {
		if err := w.Change(200, "q0", logic.Vec{logic.L0}); err != nil {
			t.Fatal(err)
		}
		if err := w.Change(250, "q1", logic.Vec{logic.L1}); err != nil {
			t.Fatal(err)
		}
		// A same-value change must still dedupe against the restored
		// last-value map.
		if err := w.Change(300, "clk", logic.Vec{logic.L0}); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(400); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("resumed tails differ:\n%q\nvs\n%q", a.Bytes(), b.Bytes())
	}

	// The codec must be a fixed point under re-encode.
	var blob2 bytes.Buffer
	if err := dec.Encode(&blob2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob.Bytes(), blob2.Bytes()) {
		t.Fatal("re-encoding a decoded writer state changed the bytes")
	}
}

func TestWriterStateCodecRejectsTruncatedAndCorrupt(t *testing.T) {
	st := midStreamState(t)
	var blob bytes.Buffer
	if err := st.Encode(&blob); err != nil {
		t.Fatal(err)
	}
	raw := blob.Bytes()
	for cut := 0; cut < len(raw); cut += 3 {
		if _, err := DecodeWriterState(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("decode accepted a blob truncated to %d of %d bytes", cut, len(raw))
		}
	}
	bad := append([]byte(nil), raw...)
	bad[0] ^= 0xff
	if _, err := DecodeWriterState(bytes.NewReader(bad)); err == nil {
		t.Error("decode accepted a blob with corrupt magic")
	}
	bad = append([]byte(nil), raw...)
	bad[4] = 99
	if _, err := DecodeWriterState(bytes.NewReader(bad)); err == nil {
		t.Error("decode accepted a blob with an unknown version")
	}
}

// FuzzDecodeWriterState hardens the decoder golden artifacts' VCD states
// pass through: it must never panic, and a blob it accepts must re-encode
// to exactly the input and resume dumping without panicking.
func FuzzDecodeWriterState(f *testing.F) {
	var seed bytes.Buffer
	if err := midStreamState(f).Encode(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Fuzz(func(t *testing.T, blob []byte) {
		st, err := DecodeWriterState(bytes.NewReader(blob))
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := st.Encode(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), blob) {
			t.Fatalf("accepted blob re-encodes differently:\n in  %x\n out %x", blob, again.Bytes())
		}
		var tail bytes.Buffer
		vw := ResumeWriter(&tail, st)
		for name, width := range st.Widths {
			// A declared width may be anything; Change must refuse a
			// mismatch rather than index past the vector.
			_ = vw.Change(st.Time+1, name, logic.NewVec(width%64))
		}
		_ = vw.Close(st.Time + 2)
	})
}
