package inject

import (
	"bytes"
	"fmt"

	"repro/internal/sim"
	"repro/internal/vcd"
	"repro/internal/wire"
)

// Golden-run artifact codec. EncodeGolden serializes everything the
// golden run produced — the golden signature, the eval count, the
// checkpoint schedule (engine snapshots plus, under CompareVCD, the VCD
// writer states and dump prefix offsets) and the raw golden VCD dump —
// into one versioned blob. PrepareSoCFromGolden rebuilds a campaign from
// that blob without simulating the golden run; the resulting campaign's
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

// EncodeGolden returns the campaign's golden-run artifact. goldenEvals is
// the Result.GoldenEvals the golden run reported; it travels with the
// artifact so an adopting process can report the same simulation cost
// accounting. A campaign adopted for planning returns the artifact it
// adopted, which carries its own eval count; those bytes are the
// campaign's, and the caller must not modify them.
func (c *Campaign) EncodeGolden(goldenEvals uint64) ([]byte, error) {
	if c.planArtifact != nil {
		return c.planArtifact, nil
	}
	if c.golden == nil {
		return nil, fmt.Errorf("inject: campaign has no golden signature to encode")
	}
	// Size every checkpoint first: the writer is allocated once, and each
	// checkpoint is appended in place behind its length prefix.
	lens := make([]int, len(c.ckpts))
	size := 64 + len(c.flat.Name) + len(c.golden.slab) + len(c.goldenVCDDump)
	for i := range c.ckpts {
		n, err := sim.EncodedLen(c.ckpts[i].ck)
		if err != nil {
			return nil, fmt.Errorf("inject: encode golden checkpoint %d: %w", i, err)
		}
		lens[i] = n
		size += n + 32
	}
	var e wire.Writer
	e.Grow(size)
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
		e.Int(lens[i])
		if err := sim.AppendCheckpoint(&e, gc.ck); err != nil {
			return nil, fmt.Errorf("inject: encode golden checkpoint %d: %w", i, err)
		}
		e.Bool(gc.vcdState != nil)
		if gc.vcdState != nil {
			nested.Reset()
			if err := gc.vcdState.Encode(&nested); err != nil {
				return nil, fmt.Errorf("inject: encode golden VCD state %d: %w", i, err)
			}
			e.Blob(nested.Bytes())
			e.Int(gc.vcdPrefix)
		}
	}
	e.Blob(c.goldenVCDDump)
	return e.Bytes(), nil
}

// adoptGolden decodes and validates a golden artifact into c, returning
// the builder's golden eval count. raw is read in place, nested blobs
// included, and the adopted state keeps no reference to it: the caller
// owns raw, and may reuse or overwrite it once adoptGolden returns.
func (c *Campaign) adoptGolden(raw []byte) (uint64, error) { return c.adopt(raw, false) }

// adoptGoldenPlan adopts a golden artifact for planning only, for a
// process that draws, merges and aggregates a campaign's plan but never
// runs an injection. It reads and checks what adoptGolden does up to the
// checkpoint schedule — header, signature, eval count, each checkpoint's
// cycle and time, and the head of each nested checkpoint (magic, version,
// kind, time) — but decodes no checkpoint's planes or queue, no VCD writer
// state, and does not parse the dump. Its checks are a subset of
// adoptGolden's: whatever adoptGolden accepts, it accepts too, and a
// stale-pitch or stale-codec artifact is still refused. The campaign keeps
// raw as its golden encoding (EncodeGolden returns it), so the caller
// must not modify raw afterwards; RunJobs refuses to run.
func (c *Campaign) adoptGoldenPlan(raw []byte) (uint64, error) { return c.adopt(raw, true) }

// adopt is adoptGolden, or adoptGoldenPlan when planOnly is set.
func (c *Campaign) adopt(raw []byte, planOnly bool) (uint64, error) {
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
		var kind sim.EngineKind
		var at uint64
		var err error
		if planOnly {
			kind, at, err = sim.DecodeCheckpointHeader(ckBlob)
		} else if gc.ck, err = sim.DecodeCheckpointBytes(ckBlob); err == nil {
			err = gc.ck.CheckDesign(c.flat)
			kind, at = gc.ck.Kind, gc.ck.TimePS
		}
		if err != nil {
			return 0, fmt.Errorf("inject: golden checkpoint %d: %w", i, err)
		}
		if kind != c.opts.Engine || at != gc.time {
			return 0, fmt.Errorf("inject: golden checkpoint %d header does not match schedule", i)
		}
		if hasVCD != needVCD {
			return 0, fmt.Errorf("inject: golden checkpoint %d has VCD state: %t, but the campaign's detector wants it: %t", i, hasVCD, needVCD)
		}
		if hasVCD {
			vsBlob := d.Blob()
			gc.vcdPrefix = d.Int()
			if d.Err() != nil {
				return 0, d.Err()
			}
			if planOnly {
				continue
			}
			if gc.vcdState, err = vcd.DecodeWriterStateBytes(vsBlob); err != nil {
				return 0, fmt.Errorf("inject: golden checkpoint %d: %w", i, err)
			}
		}
	}
	dump := d.Blob() // aliases raw
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
	c.golden, c.goldenVCD = sig, nil
	if planOnly {
		c.ckpts, c.goldenVCDDump, c.planArtifact = nil, nil, raw
		return evals, nil
	}
	c.ckpts, c.goldenVCDDump, c.planArtifact = ckpts, bytes.Clone(dump), nil
	if needVCD {
		// Parse the dump now, so a malformed one is refused at adoption.
		if _, err := c.goldenTrace(); err != nil {
			return 0, fmt.Errorf("inject: golden artifact VCD dump: %w", err)
		}
	}
	return evals, nil
}
