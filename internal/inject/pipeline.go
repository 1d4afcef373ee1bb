package inject

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/sim"
	"repro/internal/vcd"
	"repro/internal/vpi"
)

// The injection pipeline. Every injection run — a campaign's, and the
// re-executions VerifyWithVCD and TailVCD perform — is worker.run with two
// independent choices: where the run starts (cold from t=0, or restored
// from a golden checkpoint) and which detector judges it (the cycle
// signature, or the paper's VCD diff).

// Work is the simulator work of injection runs: the one counter vector a
// worker accounts, RunJobs sums into Result, a shard carries in its
// Partial, Merge and the coordinator's per-sweep cost add up, and Metrics
// mirrors into a registry. Work metrics only — verdicts are bit-identical
// however much work reached them.
//
// The JSON shape is shard.Partial's, which is under an integrity checksum
// in every journal and lake blob: a field may be appended (omitempty, so
// older stamps still verify) but never renamed, re-tagged or reordered.
type Work struct {
	// InjectWall is the wall-clock of the injection phase (Table III).
	InjectWall time.Duration `json:"inject_wall_ns"`
	// InjectEvals counts simulator cell evaluations, scalar-equivalent:
	// a run in a lane pass (see lanes.go) counts what the same run on its
	// own checkpoint start would have counted.
	InjectEvals uint64 `json:"inject_evals"`
	// WarmStarts counts injections that resumed from a golden checkpoint
	// instead of replaying from t=0; PrunedRuns counts the subset that
	// ended early as masked: either the latching-window prefilter decided
	// it before any restore (0 evals), or the faulty state re-converged
	// onto the golden trajectory.
	WarmStarts uint64 `json:"warm_starts"`
	PrunedRuns uint64 `json:"pruned_runs"`
	// DeltaRestores counts warm starts that reset their engine through the
	// dirty-set delta path (consecutive strike-sorted injections sharing a
	// restore point) instead of a wholesale checkpoint copy; RestoreWall is
	// the total wall-clock the workers spent inside restores.
	DeltaRestores uint64        `json:"delta_restores,omitempty"`
	RestoreWall   time.Duration `json:"restore_wall_ns,omitempty"`
	// WordEvals counts the cell evaluations lane passes performed: one per
	// cell per sweep, for every lane of the pass at once. Zero on
	// EventSim, which runs no lanes.
	WordEvals uint64 `json:"word_evals,omitempty"`
}

// Add accumulates o into w.
func (w *Work) Add(o Work) {
	w.InjectWall += o.InjectWall
	w.InjectEvals += o.InjectEvals
	w.WarmStarts += o.WarmStarts
	w.PrunedRuns += o.PrunedRuns
	w.DeltaRestores += o.DeltaRestores
	w.RestoreWall += o.RestoreWall
	w.WordEvals += o.WordEvals
}

// worker is one injection worker's reusable simulation context: checkpoint
// starts restore a single engine instead of reconstructing one. Within a
// batch the reset is a dirty-set delta restore — the engine tracks what the
// previous injection touched and rewrites only that — which is what
// strike-sorting the jobs buys. Its Work is everything but InjectWall,
// which RunJobs times around the whole fan-out.
type worker struct {
	Work
	c      *Campaign
	eng    sim.Engine // built on the first checkpoint start
	lastCk *sim.Checkpoint
	lanes  *sim.LaneSim // built on the first lane group
}

// inject performs planned injection j, starting from golden checkpoint
// ckIdx (cold when negative), and judges it with the campaign's detector:
// the VCD diff for a cold start under CompareVCD, the cycle signature
// otherwise. A checkpoint start the latching-window prefilter decides is
// masked without a restore or a single eval; it counts as a warm start
// pruned at once. Cold starts always simulate: they are the oracle.
func (w *worker) inject(j Job, ckIdx int) (Injection, error) {
	inj, err := w.c.injection(j)
	if err == nil {
		switch {
		case ckIdx < 0 && w.c.opts.CompareVCD:
			inj.SoftError, err = w.run(&inj, ckIdx, &vcdDetector{c: w.c})
		case ckIdx >= 0 && w.c.latch.decides(&inj):
			w.WarmStarts++
			w.PrunedRuns++
		default:
			inj.SoftError, err = w.run(&inj, ckIdx, &sigDetector{c: w.c})
		}
	}
	if err != nil {
		return inj, fmt.Errorf("inject: cell %s: %v", inj.Path, err)
	}
	return inj, nil
}

// run executes one injection run: start (a fresh engine at t=0 when ckIdx
// < 0, else golden checkpoint ckIdx restored), apply inj's fault (nil runs
// the golden workload), arm det, then run segment by segment to the
// checkpoints after the start. A detector that can judge early stops the
// run at the first divergence it samples (soft error) or once the fault is
// consumed and the full engine state re-converges onto a golden checkpoint
// (masked: the remaining tail is bit-identical to golden). Otherwise — and
// always on a cold start, which has no checkpoints to stop at — the run
// reaches plan end and the detector judges it.
func (w *worker) run(inj *Injection, ckIdx int, det detector) (bool, error) {
	c := w.c
	eng, rec, err := w.start(ckIdx)
	if err != nil {
		return false, err
	}
	evals0 := eng.CellEvals()
	defer func() { w.InjectEvals += eng.CellEvals() - evals0 }()
	var faultEnd uint64
	if inj != nil {
		if faultEnd, err = c.applyFault(eng, inj); err != nil {
			return false, err
		}
	}
	if err := det.arm(eng, rec); err != nil {
		return false, err
	}
	if _, able := det.early(); able && rec != nil {
		for _, b := range c.ckpts[ckIdx+1:] {
			if err := eng.Run(b.time); err != nil {
				return false, err
			}
			diverged, _ := det.early()
			soft, masked := retire(1, bit(diverged), bit(b.time > faultEnd), func() uint64 {
				return bit(!eng.MatchesCheckpoint(b.ck))
			})
			if soft != 0 {
				return true, nil
			}
			if masked != 0 {
				w.PrunedRuns++
				return false, nil
			}
		}
	}
	if err := eng.Run(c.plan.DurationPS); err != nil {
		return false, err
	}
	return det.verdict()
}

// retire is a checkpoint start's rule at a golden checkpoint boundary,
// applied to every run of the runs mask at once (the lanes of a lane
// pass; a lone run is bit 0): a run that has sampled a divergence ends as
// a soft error, and one whose fault is consumed and whose whole state
// differs from golden nowhere ends masked. differs, the costly test, is
// called only when some run could end masked.
func retire(runs, diverged, consumed uint64, differs func() uint64) (soft, masked uint64) {
	soft = runs & diverged
	if rest := runs &^ diverged & consumed; rest != 0 {
		masked = rest &^ differs()
	}
	return soft, masked
}

// bit is 1 for true, 0 for false.
func bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// start readies the engine a run begins on: a fresh one with the stimulus
// applied when ckIdx < 0, else the worker's engine restored to golden
// checkpoint ckIdx — through the delta path when the previous run restored
// the same one.
func (w *worker) start(ckIdx int) (sim.Engine, *goldenCheckpoint, error) {
	c := w.c
	if ckIdx < 0 {
		eng, err := c.coldEngine()
		return eng, nil, err
	}
	if w.eng == nil {
		eng, err := sim.New(c.opts.Engine, c.flat)
		if err != nil {
			return nil, nil, err
		}
		w.eng = eng
	}
	rec := &c.ckpts[ckIdx]
	began := time.Now()
	err := w.eng.RestoreDelta(rec.ck)
	w.RestoreWall += time.Since(began)
	if err != nil {
		return nil, nil, err
	}
	if w.lastCk == rec.ck {
		w.DeltaRestores++
	}
	w.lastCk = rec.ck
	w.WarmStarts++
	return w.eng, rec, nil
}

// coldEngine builds a fresh engine at t=0 with the workload stimulus
// applied: the set-up the golden run and every cold start share.
func (c *Campaign) coldEngine() (sim.Engine, error) {
	eng, err := sim.New(c.opts.Engine, c.flat)
	if err != nil {
		return nil, err
	}
	return eng, c.plan.Apply(eng)
}

// injection builds the record of planned injection j: an SEU for a storage
// cell, an SET with the cell's pulse width at the campaign's LET for a
// combinational one.
func (c *Campaign) injection(j Job) (Injection, error) {
	fc := c.flat.Cells[j.CellID]
	inj := Injection{CellID: j.CellID, Path: fc.Path, Kind: fault.SEU, TimePS: j.TimePS, Cluster: j.Cluster}
	entry, err := c.db.Entry(fc.Def.Name)
	if err != nil || fc.Def.IsSequential() {
		return inj, err
	}
	inj.Kind, inj.PulsePS = fault.SET, entry.PulseWidthPS(c.opts.LET)
	if inj.PulsePS == 0 {
		inj.PulsePS = 40
	}
	return inj, nil
}

// applyFault schedules inj's fault on eng through the VPI layer, per the
// Fig. 2 models: an SEU inverts the storage node at the strike time; an SET
// is an equivalent square wave forced onto the struck cell's output net for
// the pulse width, with the polarity opposing the value present at strike
// time. It returns the instant the last fault event is consumed by, the
// earliest a run may be compared against golden checkpoints for
// convergence.
func (c *Campaign) applyFault(eng sim.Engine, inj *Injection) (uint64, error) {
	v := vpi.New(eng)
	fc := c.flat.Cells[inj.CellID]
	t, width := inj.TimePS, inj.PulsePS
	if fc.Def.IsSequential() {
		h, err := v.RegHandle(inj.CellID)
		if err != nil {
			return 0, err
		}
		return t, v.FlipReg(h, t)
	}
	if width == 0 {
		return 0, fmt.Errorf("inject: SET injection for %s lacks a pulse width", inj.Path)
	}
	h, err := v.NetHandle(fc.Out[0])
	if err != nil {
		return 0, err
	}
	v.CbAtTime(t, func() {
		cur, _ := v.GetValue(h)
		pulse := cur.Not()
		if !cur.IsKnown() {
			pulse = logic.L1
		}
		_ = v.Force(h, t+1, pulse)
		_ = v.Release(h, t+1+width)
	})
	return t + 1 + width, nil
}

// detector judges whether a run's monitored outputs diverge from the
// golden run's at the sampling instants.
type detector interface {
	// arm hooks the detector onto eng after the run's start and fault are
	// in place and before its first segment; rec is the golden checkpoint
	// the run resumed from, nil for a cold start at t=0.
	arm(eng sim.Engine, rec *goldenCheckpoint) error
	// early reports whether the detector can judge before plan end (able)
	// and, if so, whether it has sampled a divergence so far.
	early() (diverged, able bool)
	// verdict judges the run once it has reached plan end.
	verdict() (bool, error)
}

// sigDetector compares the engine's monitored values at every sampling
// instant after the start against the golden signature rows.
type sigDetector struct {
	c        *Campaign
	diverged bool
}

func (d *sigDetector) arm(eng sim.Engine, rec *goldenCheckpoint) error {
	c := d.c
	// After a checkpoint the prefix is golden by construction (the strike
	// lands at or after the restore point), so only later cycles are
	// sampled. Every sampler is registered here, before the first Run, even
	// though an early exit never reaches most of them: pre-run registration
	// orders a sampler ahead of the transitions the run creates at its
	// instant (see sampled), and registering lazily between segments would
	// flip that order against in-flight transitions.
	from := 2
	if rec != nil {
		from = rec.cycle + 1
	}
	for k := from; k <= c.cycles(); k++ {
		golden := c.golden.row(k - 2)
		eng.At(c.sampleTime(k), func() {
			if d.diverged {
				return
			}
			for i, nid := range c.plan.Monitors {
				if eng.Value(nid) != golden[i] {
					d.diverged = true
					return
				}
			}
		})
	}
	return nil
}

func (d *sigDetector) early() (bool, bool) { return d.diverged, true }

func (d *sigDetector) verdict() (bool, error) { return d.diverged, nil }

// vcdDetector dumps the monitored outputs through a vcd.Writer — fresh on
// a cold start; after a checkpoint, the golden dump's prefix followed by a
// writer resumed from the checkpoint's state — and at plan end parses the
// dump and diffs it against the golden trace. It judges only complete runs.
type vcdDetector struct {
	c *Campaign
	// dump, when set, receives the dump instead of buf, and the detector
	// leaves it to its caller unjudged.
	dump io.Writer
	buf  bytes.Buffer
	vw   *vcd.Writer
}

func (d *vcdDetector) arm(eng sim.Engine, rec *goldenCheckpoint) error {
	c := d.c
	out := d.dump
	if out == nil {
		out = &d.buf
	}
	if rec == nil {
		d.vw = vcd.NewWriter(out)
		return sim.AttachVCD(eng, d.vw, c.plan.Monitors)
	}
	if rec.vcdState == nil {
		return fmt.Errorf("inject: checkpoint at cycle %d has no VCD writer state (only a warm CompareVCD campaign dumps one)", rec.cycle)
	}
	// The faulty run's own prefix is the golden one: the strike lands after
	// the restore point.
	if _, err := out.Write(c.goldenVCDDump[:rec.vcdPrefix]); err != nil {
		return err
	}
	d.vw = vcd.ResumeWriter(out, rec.vcdState)
	for _, nid := range c.plan.Monitors {
		name := c.flat.Nets[nid].Name
		eng.OnNetChange(nid, func(t uint64, v logic.V) {
			// Change fails only on time reversal or an undeclared signal;
			// the resumed state declares every monitor, at the checkpoint time.
			_ = d.vw.Change(t, name, logic.Vec{v})
		})
	}
	return nil
}

func (d *vcdDetector) early() (bool, bool) { return false, false }

func (d *vcdDetector) verdict() (bool, error) {
	if err := d.vw.Close(d.c.plan.DurationPS); err != nil || d.dump != nil {
		return false, err
	}
	faulty, err := vcd.Parse(&d.buf)
	if err != nil {
		return false, err
	}
	golden, err := d.c.goldenTrace()
	if err != nil {
		return false, err
	}
	return d.c.compareCaptured(golden, faulty), nil
}

// goldenTrace returns the parsed golden VCD trace the VCD detector diffs
// against, materializing it on first use — the one place that does: parsed
// from the dump a warm CompareVCD campaign's golden run recorded, or from
// one fault-free cold replay when there is none.
func (c *Campaign) goldenTrace() (*vcd.Trace, error) {
	c.traceMu.Lock()
	defer c.traceMu.Unlock()
	if c.goldenVCD != nil {
		return c.goldenVCD, nil
	}
	dump := c.goldenVCDDump
	if len(dump) == 0 {
		var buf bytes.Buffer
		if _, err := (&worker{c: c}).run(nil, -1, &vcdDetector{c: c, dump: &buf}); err != nil {
			return nil, err
		}
		dump = buf.Bytes()
	}
	tr, err := vcd.Parse(bytes.NewReader(dump))
	if err != nil {
		return nil, err
	}
	c.goldenVCD = tr
	return tr, nil
}

// sampled reads a dumped signal as the engine's own sampler saw it at
// cycle k: the one definition of "the value sampled at cycle k" both
// detectors share. An EventSim observer registered before the run orders
// ahead of every transition the run creates at the same instant, so it
// reads the last change strictly before sampleTime(k); a LevelSim observer
// runs once its time step has settled, so it reads the changes at
// sampleTime(k) too. (No stimulus is scheduled at a sampling instant.)
func (c *Campaign) sampled(s *vcd.Signal, k int) logic.V {
	tm := c.sampleTime(k)
	if c.opts.Engine == sim.KindEvent {
		tm--
	}
	return s.At(tm)[0]
}

// compareCaptured diffs two VCD traces at the sampling instants.
func (c *Campaign) compareCaptured(golden, faulty *vcd.Trace) bool {
	for name, gs := range golden.Signals {
		fs, ok := faulty.Signals[name]
		if !ok {
			return true
		}
		for k := 2; k <= c.cycles(); k++ {
			if c.sampled(gs, k) != c.sampled(fs, k) {
				return true
			}
		}
	}
	return false
}

// VerifyWithVCD re-executes one recorded injection with the paper's
// method — replayed cold from t=0, dumped to VCD and diffed against the
// golden trace — and reports whether it is a soft error. The verdict must
// equal the recorded Injection.SoftError: both detectors read the same
// sampled value per cycle, so a difference is a bug.
func (c *Campaign) VerifyWithVCD(inj Injection) (bool, error) {
	return (&worker{c: c}).run(&inj, -1, &vcdDetector{c: c})
}

// TailVCD re-executes one recorded injection warm — restored from the
// latest golden checkpoint before its strike — and writes the complete
// faulty trace into w: the golden dump's byte prefix followed by the tail
// dumped through the checkpoint's resumed writer state. The output is
// byte-for-byte the dump a cold replay-from-zero faulty run would have
// produced, at tail cost; TestTailVCDMatchesColdDump pins that. It
// requires a warm CompareVCD campaign (the golden dump and per-checkpoint
// writer states exist only there).
func (c *Campaign) TailVCD(inj Injection, w io.Writer) error {
	if _, idx := c.checkpointBefore(inj.TimePS); idx >= 0 {
		_, err := (&worker{c: c}).run(&inj, idx, &vcdDetector{c: c, dump: w})
		return err
	}
	return fmt.Errorf("inject: no golden checkpoint before the strike at %dps to resume a dump from", inj.TimePS)
}

// checkpointBefore returns the latest golden checkpoint at or before time
// t, or nil when t precedes the whole schedule.
func (c *Campaign) checkpointBefore(t uint64) (*goldenCheckpoint, int) {
	idx := sort.Search(len(c.ckpts), func(i int) bool { return c.ckpts[i].time > t }) - 1
	if idx < 0 {
		return nil, -1
	}
	return &c.ckpts[idx], idx
}
