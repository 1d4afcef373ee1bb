package inject

import (
	"math/bits"
	"time"

	"repro/internal/sim"
)

// The lane start: on a warm LevelSim campaign, the checkpoint-start SEUs
// run up to sim.Lanes-1 at a time on one sim.LaneSim pass — PROOFS
// parallel-pattern fault simulation (Niermann, Cheng & Patel, DAC 1990).
// Lane 0 is the golden run and lane i+1 carries the group's i-th SEU,
// flipped at its strike. A lane's run is the checkpoint start of its SEU
// bit for bit: the same samples, the same boundary rule (retire), the
// same verdict, and the same work counters — InjectEvals included, which
// LaneSim accounts per lane as the lane's own LevelSim would (DESIGN.md,
// "Lane start"). SETs, cold starts and EventSim stay scalar.

// laneGroups packs a slice's checkpoint-start SEUs, strike-sorted with
// their checkpoints in laneCks, into lane groups of at most
// min(sim.Lanes-1, ⌈SEUs/workers⌉) consecutive jobs, so that every
// worker gets a group. Each group's pass starts at its first (earliest)
// job's checkpoint.
func laneGroups(seus jobBatch, workers int) []jobBatch {
	n := len(seus.idxs)
	size := min(sim.Lanes-1, (n+workers-1)/workers)
	var out []jobBatch
	for i := 0; i < n; i += size {
		j := min(i+size, n)
		out = append(out, jobBatch{ckIdx: seus.laneCks[i], idxs: seus.idxs[i:j], laneCks: seus.laneCks[i:j]})
	}
	return out
}

// injectLanes performs lane group b of the RunJobs slice jobs, writing
// each job's injection and error at its index. A group the lanes cannot
// run — an injection it cannot build, a start checkpoint or queued input
// that is not two-valued, a sweep cap or settle failure in the pass —
// runs every job on its own checkpoint start instead: the scalar path the
// lanes equal, which also reports any error against the right injection.
func (w *worker) injectLanes(jobs []Job, b jobBatch, out []Injection, errs []error) {
	injs := make([]Injection, len(b.idxs))
	for i, idx := range b.idxs {
		inj, err := w.c.injection(jobs[idx])
		if err != nil {
			w.injectScalar(jobs, b, out, errs)
			return
		}
		injs[i] = inj
	}
	soft, ok := w.runLanes(injs, b.ckIdx, b.laneCks)
	if !ok {
		w.injectScalar(jobs, b, out, errs)
		return
	}
	for i, idx := range b.idxs {
		injs[i].SoftError = soft>>(i+1)&1 != 0
		out[idx] = injs[i]
	}
}

// injectScalar performs every job of lane group b on its own checkpoint
// start.
func (w *worker) injectScalar(jobs []Job, b jobBatch, out []Injection, errs []error) {
	for i, idx := range b.idxs {
		out[idx], errs[idx] = w.inject(jobs[idx], b.laneCks[i])
	}
}

// runLanes runs SEUs injs in lanes 1..len(injs) of one pass from golden
// checkpoint start, injs[i] being accounted from its own checkpoint
// cks[i] >= start, and returns the soft-error lanes. ok is false when the
// lanes cannot run the group; then only WordEvals and RestoreWall have
// been counted, and the caller runs the group scalar.
//
// The loop is worker.run's segment loop over all lanes: run to each
// checkpoint boundary after start, retire the counted lanes there, and
// start counting the lanes whose own checkpoint it is. A lane is counted
// exactly over (its checkpoint, its retiring boundary], the span its
// scalar run simulates; lanes not yet counted mirror lane 0 until their
// strike, so they stay live.
func (w *worker) runLanes(injs []Injection, start int, cks []int) (soft uint64, ok bool) {
	c := w.c
	if w.lanes == nil {
		ls, err := sim.NewLaneSim(c.flat)
		if err != nil {
			return 0, false
		}
		w.lanes = ls
	}
	ls := w.lanes
	began := time.Now()
	err := ls.Restore(c.ckpts[start].ck)
	w.RestoreWall += time.Since(began)
	if err != nil {
		return 0, false
	}
	defer func() { w.WordEvals += ls.WordEvals() }()
	for i := range injs {
		if err := ls.ScheduleFlip(injs[i].TimePS, injs[i].CellID, i+1); err != nil {
			return 0, false
		}
	}
	// The samplers of sigDetector.arm, for every lane at once: lane 0 is
	// golden and two-valued, so the golden row is a broadcast 0 or 1.
	var diverged uint64
	for k := c.ckpts[start].cycle + 1; k <= c.cycles(); k++ {
		golden := c.golden.row(k - 2)
		ls.At(c.sampleTime(k), func() {
			for i, nid := range c.plan.Monitors {
				diverged |= ls.Word(nid) ^ -uint64(golden[i])
			}
		})
	}
	startCounting := func(ck int, counted uint64) uint64 {
		for i := range cks {
			if cks[i] == ck {
				counted |= 1 << (i + 1)
			}
		}
		return counted
	}
	pending := uint64(1)<<(len(injs)+1) - 2
	counted := startCounting(start, 0)
	var masked uint64
	ls.Track(1|pending, counted)
	for bi := start + 1; bi < len(c.ckpts) && pending != 0; bi++ {
		b := &c.ckpts[bi]
		if err := ls.Run(b.time); err != nil {
			return 0, false
		}
		var consumed uint64
		for i := range injs {
			consumed |= bit(b.time > injs[i].TimePS) << (i + 1)
		}
		s, m := retire(counted, diverged, consumed, ls.Diff)
		soft, masked = soft|s, masked|m
		pending &^= s | m
		counted = startCounting(bi, counted&^(s|m))
		ls.Track(1|pending, counted)
	}
	if pending != 0 {
		if err := ls.Run(c.plan.DurationPS); err != nil {
			return 0, false
		}
		soft |= pending & diverged
	}
	for i := range injs {
		w.InjectEvals += ls.LaneEvals(i + 1)
	}
	w.WarmStarts += uint64(len(injs))
	w.PrunedRuns += uint64(bits.OnesCount64(masked))
	return soft, true
}
