package inject

import (
	"slices"
	"sort"
	"time"

	"repro/internal/sim"
)

// The golden cursor: the jobs of a jobBatch share one golden checkpoint
// and come strike-sorted. Restore + replay would simulate the fault-free
// stretch from the checkpoint to each strike once per job — the good
// machine re-run for every faulty one, in Ulrich & Baker's terms
// (concurrent fault simulation, 1973). Instead a worker on an EventSim
// campaign keeps a second engine, the cursor, which it advances along the
// golden run to each simulated job's strike − 1 ps, restoring the job's
// checkpoint only when the cursor stands on another checkpoint's stretch
// or past the job's. The job's engine is then a copy of the cursor
// (sim.EventSim.CopyFrom) and takes the fault and the samplers from
// there. CopyFrom gives the copy's queued events the phases a golden
// checkpoint has, so the fault and the samplers order against the
// cursor's in-flight transitions exactly as after restore + replay, and
// as in a cold run (DESIGN.md "Golden cursor fork").
//
// What the cursor simulates depends on which jobs a worker meets in which
// order, so it is not what InjectEvals is charged: a result merged from
// shards must count what one process counts (shard.EquivalentResults).
// Each fork is charged the golden stretch from the previous distinct
// strike among the plan's forking jobs in its checkpoint interval (or
// from the checkpoint) to its own strike − 1 ps: one cursor pass over
// every interval, a pure function of the plan. Re-advancing after a
// restore is not charged. Only signature-detector checkpoint starts in
// RunJobs fork; cold starts, the VCD detector (TailVCD, VerifyWithVCD),
// lane groups and LevelSim restore and replay.

// goldenCursor is a worker's golden cursor.
type goldenCursor struct {
	es *sim.EventSim // built on the first fork
	ck int           // the checkpoint last restored; -1 for none
	// from is the charge start last read and fromEvals the cursor's eval
	// count there: the golden run's, since the cursor is golden.
	from, fromEvals uint64
}

// forkStrikes returns the ascending distinct strike times of the plan's
// jobs that fork: checkpoint starts the latching-window prefilter does
// not decide. The first call computes them.
func (c *Campaign) forkStrikes() []uint64 {
	c.forkOnce.Do(func() {
		for _, j := range c.jobs {
			inj, err := c.injection(j)
			if _, ck := c.checkpointBefore(j.TimePS); err == nil && ck >= 0 && !c.latch.decides(&inj) {
				c.forks = append(c.forks, j.TimePS)
			}
		}
		slices.Sort(c.forks)
		c.forks = slices.Compact(c.forks)
	})
	return c.forks
}

// chargeFrom is the golden instant a fork at strike t from checkpoint
// ckIdx is charged from: the previous distinct forking strike − 1 ps, or
// the checkpoint when that lies before it.
func (c *Campaign) chargeFrom(ckIdx int, t uint64) uint64 {
	s := c.forkStrikes()
	from := c.ckpts[ckIdx].time
	if i := sort.Search(len(s), func(i int) bool { return s[i] >= t }); i > 0 && s[i-1] > from {
		from = s[i-1] - 1
	}
	return from
}

// fork readies the worker's engine for a strike at t from golden
// checkpoint ckIdx: the cursor runs to t − 1 and the engine becomes its
// copy. The cursor is restored first when it stands on another
// checkpoint's stretch, or past the instant the fork is charged from
// without having read its eval count there. The fork is charged the
// cursor's evals from chargeFrom to t − 1; the cursor's restores and the
// copy are timed into RestoreWall.
func (w *worker) fork(ckIdx int, t uint64) error {
	cur := w.cursor
	if cur.es == nil {
		cur.es = sim.NewEventSim(w.c.flat)
	}
	from := w.c.chargeFrom(ckIdx, t)
	if now := cur.es.Now(); cur.ck != ckIdx || now >= t || now > from && cur.from != from {
		began := time.Now()
		err := cur.es.Restore(w.c.ckpts[ckIdx].ck)
		w.RestoreWall += time.Since(began)
		if err != nil {
			return err
		}
		cur.ck = ckIdx
	}
	if cur.es.Now() <= from {
		if err := cur.es.Run(from); err != nil {
			return err
		}
		cur.from, cur.fromEvals = from, cur.es.CellEvals()
	}
	if err := cur.es.Run(t - 1); err != nil {
		return err
	}
	w.InjectEvals += cur.es.CellEvals() - cur.fromEvals
	began := time.Now()
	err := w.eng.(*sim.EventSim).CopyFrom(cur.es)
	w.RestoreWall += time.Since(began)
	return err
}
