package inject

import (
	"bytes"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/riscv"
	"repro/internal/sim"
	"repro/internal/socgen"
	"repro/internal/vcd"
	"repro/internal/wire"
)

// encodeGoldenFor builds a campaign locally and returns its serialized
// golden artifact alongside the run.
func encodeGoldenFor(t testing.TB, opts Options) (*SoCRun, []byte) {
	t.Helper()
	run := prep(t, 1, opts)
	blob, err := run.Campaign.EncodeGolden(run.Result.GoldenEvals)
	if err != nil {
		t.Fatal(err)
	}
	return run, blob
}

func prepFromGolden(t *testing.T, opts Options, blob []byte) *SoCRun {
	t.Helper()
	cfg, err := socgen.ConfigByIndex(1)
	if err != nil {
		t.Fatal(err)
	}
	run, err := PrepareSoCFromGolden(cfg, riscv.MemcpyProgram(8), fault.DefaultDB(), opts, blob)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// TestGoldenArtifactAdoptionBitIdentical is the lake-never-changes-output
// gate at the campaign level: a campaign adopting a serialized golden
// artifact must produce results bit-identical to one that simulated the
// golden run itself — on both engines, and with the CompareVCD detector
// whose checkpoints additionally carry VCD writer states.
func TestGoldenArtifactAdoptionBitIdentical(t *testing.T) {
	cases := map[string]func(*Options){
		"EventSim":   func(o *Options) {},
		"LevelSim":   func(o *Options) { o.Engine = "LevelSim"; o.SampleFrac = 0.02 },
		"CompareVCD": func(o *Options) { o.CompareVCD = true; o.SampleFrac = 0.02 },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			opts := testOptions()
			mutate(&opts)

			local, blob := encodeGoldenFor(t, opts)
			if err := local.Campaign.Run(local.Result); err != nil {
				t.Fatal(err)
			}

			adopted := prepFromGolden(t, opts, blob)
			if adopted.Result.GoldenEvals != local.Result.GoldenEvals {
				t.Fatalf("adopted GoldenEvals %d, builder reported %d",
					adopted.Result.GoldenEvals, local.Result.GoldenEvals)
			}
			if err := adopted.Campaign.Run(adopted.Result); err != nil {
				t.Fatal(err)
			}
			assertResultsIdentical(t, name, local.Result, adopted.Result)
			if adopted.Result.WarmStarts == 0 {
				t.Fatal("adopted campaign never warm-started — checkpoint schedule was not adopted")
			}
		})
	}
}

// TestGoldenArtifactDeterministic pins that the artifact bytes are a pure
// function of the campaign — the property content addressing keys on.
func TestGoldenArtifactDeterministic(t *testing.T) {
	opts := testOptions()
	_, a := encodeGoldenFor(t, opts)
	_, b := encodeGoldenFor(t, opts)
	if !bytes.Equal(a, b) {
		t.Fatal("two identical campaigns encoded different golden artifacts")
	}
}

// TestGoldenArtifactRejectsCorruptAndMismatched covers the refusal paths:
// truncation, bit flips in the header, and an artifact built for different
// options must all error out rather than install a wrong golden state.
func TestGoldenArtifactRejectsCorruptAndMismatched(t *testing.T) {
	opts := testOptions()
	_, blob := encodeGoldenFor(t, opts)
	cfg, err := socgen.ConfigByIndex(1)
	if err != nil {
		t.Fatal(err)
	}
	try := func(o Options, b []byte) error {
		_, err := PrepareSoCFromGolden(cfg, riscv.MemcpyProgram(8), fault.DefaultDB(), o, b)
		return err
	}

	for _, cut := range []int{0, 4, len(blob) / 3, len(blob) - 1} {
		if err := try(opts, blob[:cut]); err == nil {
			t.Errorf("truncated artifact (%d bytes) accepted", cut)
		}
	}
	bad := append([]byte(nil), blob...)
	bad[0] ^= 0xff
	if err := try(opts, bad); err == nil {
		t.Error("artifact with corrupt magic accepted")
	}

	other := opts
	other.Engine = "LevelSim"
	other.SampleFrac = 0.02
	if err := try(other, blob); err == nil {
		t.Error("EventSim artifact accepted by a LevelSim campaign")
	}
	vcdOpts := opts
	vcdOpts.CompareVCD = true
	if err := try(vcdOpts, blob); err == nil {
		t.Error("artifact without VCD state accepted by a CompareVCD campaign")
	}
}

// TestDecodersBoundCountsByInput feeds each of the three artifact decoders
// a few dozen bytes whose header is valid and whose first element count is
// enormous. Blobs reach these decoders from disk and over the wire (a
// lake directory another process filled, GET /v1/lake/{key...}; the hash
// check proves integrity, not sanity), so the count must be refused
// against the bytes that remain — before anything is sized by it. Bounded by a constant instead, the checkpoint rows allocated
// 2^28 queue entries (12 GiB) ahead of the first element read.
func TestDecodersBoundCountsByInput(t *testing.T) {
	const huge = 1 << 28
	checkpoint := func(kindTag byte) []byte {
		var w wire.Writer
		w.U32(0x534b5031) // "SKP1"
		w.Byte(2)         // codec version
		w.Byte(kindTag)
		w.U64(0)     // time
		w.U64(0)     // evals
		w.String("") // design
		w.Int(0)     // nets: every plane is empty
		w.Int(0)     // cells
		w.U64(0)     // seqBase
		w.Int(huge)  // queue entries
		return w.Bytes()
	}
	var writerState wire.Writer
	writerState.U32(0x56535431) // "VST1"
	writerState.Byte(1)
	writerState.U64(0)
	writerState.Bool(false)
	writerState.Int(huge) // signals

	run := prep(t, 1, testOptions())
	c := run.Campaign
	var golden wire.Writer
	golden.U32(goldenMagic)
	golden.Byte(goldenVersion)
	golden.String(c.flat.Name)
	golden.String(string(c.opts.Engine))
	golden.Int(c.cycles())
	golden.Int(len(c.plan.Monitors))
	golden.U64(0)
	golden.Int(len(c.plan.Monitors))
	golden.Int(huge) // signature slab length

	decodeCheckpoint := func(b []byte) error {
		_, err := sim.DecodeCheckpoint(bytes.NewReader(b))
		return err
	}
	for _, tc := range []struct {
		name   string
		blob   []byte
		decode func([]byte) error
	}{
		{"checkpoint/EventSim", checkpoint(1), decodeCheckpoint},
		{"checkpoint/LevelSim", checkpoint(2), decodeCheckpoint},
		{"writer-state", writerState.Bytes(), func(b []byte) error {
			_, err := vcd.DecodeWriterState(bytes.NewReader(b))
			return err
		}},
		{"golden", golden.Bytes(), func(b []byte) error {
			_, err := c.adoptGolden(b)
			return err
		}},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := tc.decode(tc.blob)
		runtime.ReadMemStats(&after)
		// The error must be the count bound itself, not an earlier header
		// check the crafted blob tripped over by accident.
		if err == nil || !strings.Contains(err.Error(), "count 268435456 exceeds") {
			t.Errorf("%s: %d-byte blob claiming 2^28 elements: got %v, want the count refused", tc.name, len(tc.blob), err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%s: decoding a %d-byte blob allocated %d bytes", tc.name, len(tc.blob), got)
		}
	}
}

// FuzzAdoptGolden hardens the outermost artifact decoder — the one a
// worker runs on bytes fetched from the lake — seeded with real artifacts
// from both engines and the CompareVCD detector. The blobs are adopted by
// those campaigns plus a cross-plan sibling of the first (another seed and
// LET, so another injection plan over the same golden run). For every
// campaign the blob could be meant for: adoption must never panic; an
// adopted artifact must re-encode to exactly the input; and the adopted
// golden state must carry injections without panicking (a
// mutated-but-well-formed state may make a run fail or flip verdicts —
// integrity is the lake hash's job — but it may not take the worker down).
// The adopted state must not alias the input: overwriting the adopted
// bytes afterwards must leave the re-encode unchanged. Planning adoption
// (adoptGoldenPlan) checks a subset of the same: it accepts whatever full
// adoption accepts, with the same plan, signature and eval count, and full
// adoption refuses whatever it refuses; an artifact adopted for planning
// re-encodes to the input and refuses to run.
func FuzzAdoptGolden(f *testing.F) {
	var camps []*Campaign
	for i, mutate := range []func(*Options){
		func(o *Options) {},
		func(o *Options) { o.Engine = "LevelSim" },
		func(o *Options) { o.CompareVCD = true },
		func(o *Options) { o.Seed++; o.LET = 100 },
	} {
		opts := testOptions()
		opts.SampleFrac = 0.02
		// One worker keeps coverage deterministic, and a wide pitch keeps the
		// seeds small — both are what lets the fuzzer spend its time mutating.
		opts.Workers = 1
		opts.CheckpointEveryCycles = 12
		mutate(&opts)
		run, blob := encodeGoldenFor(f, opts)
		if i < 3 { // the sibling's artifact is the first's, byte for byte
			f.Add(blob)
		}
		camps = append(camps, run.Campaign)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		for _, c := range camps {
			planEvals, planErr := c.adoptGoldenPlan(bytes.Clone(blob))
			var planSig []logic.V
			planJobs := slices.Clone(c.DrawJobs())
			if planErr == nil {
				planSig = c.golden.slab
				if again, err := c.EncodeGolden(planEvals); err != nil || !bytes.Equal(again, blob) {
					t.Fatalf("artifact adopted for planning re-encodes differently (err %v)", err)
				}
				if c.RunJobs(&Result{}, 0, min(1, len(c.DrawJobs()))) == nil {
					t.Fatal("campaign adopted for planning ran injections")
				}
			}
			in := bytes.Clone(blob)
			evals, err := c.adoptGolden(in)
			if err != nil {
				continue
			}
			if planErr != nil {
				t.Fatalf("planning adoption refused an artifact full adoption accepts: %v", planErr)
			}
			if planEvals != evals || !slices.Equal(planSig, c.golden.slab) || !slices.Equal(planJobs, c.DrawJobs()) {
				t.Fatal("planning and full adoption of one artifact disagree on eval count, signature or plan")
			}
			for i := range in {
				in[i] = ^in[i]
			}
			again, err := c.EncodeGolden(evals)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, blob) {
				t.Fatal("adopted artifact re-encodes differently")
			}
			_ = c.RunJobs(&Result{}, 0, min(3, len(c.DrawJobs())))
		}
	})
}
