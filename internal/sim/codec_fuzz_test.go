package sim

import (
	"bytes"
	"testing"
)

// FuzzDecodeCheckpoint hardens the one decoder every golden artifact's
// checkpoints pass through, seeded with real encodes from both engines,
// mid-cycle and 1 ps past a rising edge (in-flight transitions).
// Whatever the fuzzer finds, the decoder must never panic; a blob it
// accepts must re-encode to exactly the input (the codec is canonical,
// which content addressing relies on); and a decoded checkpoint that
// passes CheckDesign must restore — and resume — without error or panic.
func FuzzDecodeCheckpoint(f *testing.F) {
	mks := engines(f)
	for _, mk := range mks {
		f.Add(encode(f, produceCheckpoint(f, mk)))
		f.Add(encode(f, snapshotAt(f, mk, pastEdge)))
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		ck, err := DecodeCheckpoint(bytes.NewReader(blob))
		if err != nil {
			return
		}
		if again := encode(t, ck); !bytes.Equal(again, blob) {
			t.Fatalf("accepted blob re-encodes differently:\n in  %x\n out %x", blob, again)
		}
		eng := mks[string(ck.Kind)]()
		if ck.CheckDesign(eng.Flat()) != nil {
			return
		}
		if err := eng.Restore(ck); err != nil {
			t.Fatalf("checkpoint passed CheckDesign but does not restore: %v", err)
		}
		// A queue entry may lie before the snapshot instant, which Run
		// reports as an error; anything but a panic is acceptable here.
		_ = eng.Run(ck.TimePS + 4*period)
	})
}
