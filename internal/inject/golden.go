package inject

import (
	"bytes"
	"fmt"
	"io"

	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/socgen"
	"repro/internal/vcd"
	"repro/internal/wire"
)

// Golden-run artifact codec. EncodeGolden serializes everything the
// golden run produced — the golden signature, the eval count, the
// checkpoint schedule (engine snapshots plus, under CompareVCD, the VCD
// writer states and dump prefix offsets) and the raw golden VCD dump —
// into one versioned blob. NewFromGolden rebuilds a campaign from that
// blob without simulating the golden run; the resulting campaign's
// injection plan, verdicts and rendered output are bit-identical to a
// locally built one.
//
// The golden run reads the design, the workload, the engine, the
// checkpoint pitch and the two switches (ColdStart, CompareVCD) — never the
// seeds, the environment or the sample — so one artifact serves every
// campaign that agrees on those. The lake keys artifacts by a hash over
// exactly that golden spec (shard.CampaignSpec.GoldenFingerprint); the
// pitch, a per-process knob, is checked on decode like every other
// structural property, and any mismatch is an error the caller turns into
// a local golden build.

const (
	goldenMagic   uint32 = 0x474c4431 // "GLD1"
	goldenVersion byte   = 1
)

// EncodeGolden writes the campaign's golden-run artifact to w.
// goldenEvals is the Result.GoldenEvals the golden run reported; it
// travels with the artifact so an adopting process can report the same
// simulation cost accounting.
func (c *Campaign) EncodeGolden(w io.Writer, goldenEvals uint64) error {
	if c.golden == nil {
		return fmt.Errorf("inject: campaign has no golden signature to encode")
	}
	var e wire.Writer
	e.U32(goldenMagic)
	e.Byte(goldenVersion)
	e.String(c.flat.Name)
	e.String(string(c.opts.Engine))
	e.Int(c.cycles())
	e.Int(len(c.plan.Monitors))
	e.U64(goldenEvals)

	e.Int(c.golden.cols)
	e.Int(len(c.golden.slab))
	e.Values(c.golden.slab)

	e.Int(len(c.ckpts))
	var nested bytes.Buffer
	for i := range c.ckpts {
		gc := &c.ckpts[i]
		e.Int(gc.cycle)
		e.U64(gc.time)
		nested.Reset()
		if err := sim.EncodeCheckpoint(&nested, gc.ck); err != nil {
			return fmt.Errorf("inject: encode golden checkpoint %d: %w", i, err)
		}
		e.Blob(nested.Bytes())
		e.Bool(gc.vcdState != nil)
		if gc.vcdState != nil {
			nested.Reset()
			if err := gc.vcdState.Encode(&nested); err != nil {
				return fmt.Errorf("inject: encode golden VCD state %d: %w", i, err)
			}
			e.Blob(nested.Bytes())
			e.Int(gc.vcdPrefix)
		}
	}
	e.Blob(c.goldenVCDDump)
	_, err := w.Write(e.Bytes())
	return err
}

// NewFromGolden prepares a campaign exactly as New does but adopts the
// serialized golden artifact in r instead of simulating the golden run.
// The artifact must have been produced by EncodeGolden on a campaign with
// the same golden spec (design, workload, engine, ColdStart, CompareVCD)
// and checkpoint pitch; the seeds, environment and sample may differ.
// Every structural property is validated and a mismatched or corrupt
// blob is rejected with an error, leaving the caller to fall back to New.
func NewFromGolden(f *netlist.Flat, plan *socgen.StimulusPlan, db *fault.DB, opts Options, r io.Reader) (*Campaign, *Result, error) {
	return prepare(f, plan, db, opts, func(c *Campaign) (uint64, error) { return c.adoptGolden(r) })
}

// adoptGolden decodes and validates a golden artifact into c, returning
// the builder's golden eval count.
func (c *Campaign) adoptGolden(r io.Reader) (uint64, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return 0, fmt.Errorf("inject: read golden artifact: %w", err)
	}
	d := wire.NewReader("inject: golden artifact", raw)
	if m := d.U32(); d.Err() == nil && m != goldenMagic {
		d.Fail("bad magic %#x", m)
	}
	if v := d.Byte(); d.Err() == nil && v != goldenVersion {
		d.Fail("unsupported version %d", v)
	}
	design := d.String()
	engine := d.String()
	cycles := d.Int()
	monitors := d.Int()
	evals := d.U64()
	if d.Err() != nil {
		return 0, d.Err()
	}
	if design != c.flat.Name {
		return 0, fmt.Errorf("inject: golden artifact is for design %q, want %q", design, c.flat.Name)
	}
	if engine != string(c.opts.Engine) {
		return 0, fmt.Errorf("inject: golden artifact is for engine %q, want %q", engine, c.opts.Engine)
	}
	if cycles != c.cycles() || monitors != len(c.plan.Monitors) {
		return 0, fmt.Errorf("inject: golden artifact shape (%d cycles, %d monitors) does not match plan (%d, %d)",
			cycles, monitors, c.cycles(), len(c.plan.Monitors))
	}

	cols := d.Int()
	sig := &signature{cols: cols, slab: d.Values(d.Count(1))}
	if d.Err() != nil {
		return 0, d.Err()
	}
	if cols != len(c.plan.Monitors) || len(sig.slab) != cols*(c.cycles()-1) {
		return 0, fmt.Errorf("inject: golden signature shape %dx%d does not match plan", cols, len(sig.slab))
	}

	nCk := d.Count(1)
	if d.Err() != nil {
		return 0, d.Err()
	}
	wantCycles := c.checkpointCycles()
	if nCk != len(wantCycles) {
		return 0, fmt.Errorf("inject: golden artifact has %d checkpoints, schedule wants %d", nCk, len(wantCycles))
	}
	needVCD := c.opts.CompareVCD && c.warmStartEnabled()
	ckpts := make([]goldenCheckpoint, nCk)
	for i := range ckpts {
		gc := &ckpts[i]
		gc.cycle = d.Int()
		gc.time = d.U64()
		ckBlob := d.Blob()
		hasVCD := d.Bool()
		if d.Err() != nil {
			return 0, d.Err()
		}
		if gc.cycle != wantCycles[i] {
			return 0, fmt.Errorf("inject: golden checkpoint %d is at cycle %d, schedule wants %d", i, gc.cycle, wantCycles[i])
		}
		if want := uint64(gc.cycle)*c.plan.PeriodPS + 1; gc.time != want {
			return 0, fmt.Errorf("inject: golden checkpoint %d time %d, want %d", i, gc.time, want)
		}
		ck, err := sim.DecodeCheckpoint(bytes.NewReader(ckBlob))
		if err != nil {
			return 0, fmt.Errorf("inject: golden checkpoint %d: %w", i, err)
		}
		if err := ck.CheckDesign(c.flat); err != nil {
			return 0, fmt.Errorf("inject: golden checkpoint %d: %w", i, err)
		}
		if ck.Kind != c.opts.Engine || ck.TimePS != gc.time {
			return 0, fmt.Errorf("inject: golden checkpoint %d header does not match schedule", i)
		}
		gc.ck = ck
		if hasVCD != needVCD {
			return 0, fmt.Errorf("inject: golden checkpoint %d has VCD state: %t, but the campaign's detector wants it: %t", i, hasVCD, needVCD)
		}
		if hasVCD {
			vsBlob := d.Blob()
			gc.vcdPrefix = d.Int()
			if d.Err() != nil {
				return 0, d.Err()
			}
			if gc.vcdState, err = vcd.DecodeWriterState(bytes.NewReader(vsBlob)); err != nil {
				return 0, fmt.Errorf("inject: golden checkpoint %d: %w", i, err)
			}
		}
	}
	dump := d.Blob()
	if err := d.Done(); err != nil {
		return 0, err
	}
	if (len(dump) > 0) != needVCD {
		return 0, fmt.Errorf("inject: golden artifact has a %d-byte VCD dump, but the campaign's detector wants one: %t", len(dump), needVCD)
	}
	for i := range ckpts {
		if ckpts[i].vcdPrefix > len(dump) {
			return 0, fmt.Errorf("inject: golden checkpoint %d VCD prefix %d exceeds dump length %d",
				i, ckpts[i].vcdPrefix, len(dump))
		}
	}
	c.setCheckpoints(ckpts)
	c.golden, c.goldenVCDDump, c.goldenVCD = sig, dump, nil
	if needVCD {
		// Parse the dump now, so a malformed one is refused at adoption.
		if _, err := c.goldenTrace(); err != nil {
			return 0, fmt.Errorf("inject: golden artifact VCD dump: %w", err)
		}
	}
	return evals, nil
}

// setCheckpoints installs the golden checkpoint schedule. Adjacent
// checkpoints hold mostly the same future stimulus; sharing the common
// suffix stops checkpoint memory scaling with pitch.
func (c *Campaign) setCheckpoints(ckpts []goldenCheckpoint) {
	shared := make([]*sim.Checkpoint, len(ckpts))
	for i := range ckpts {
		shared[i] = ckpts[i].ck
	}
	sim.ShareTails(shared)
	c.ckpts = ckpts
}
