package inject

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// The quiet rule: on an EventSim signature-detector checkpoint start, a
// run whose fault is consumed but whose state still differs from golden
// at a checkpoint boundary is often one flipped storage cell that its
// fan-out masks (un-ACE state, in the terms of ACE analysis). When the
// difference is storage-only and touches no monitor, sim.ChangeLog.Prove
// decides it from the golden run's change log instead of simulating the
// tail (DESIGN.md, "Quiet-divergence proof"): a proof that reaches the end
// of the log retires the run masked; one that fails at entry p lets the
// run jump to the last checkpoint taken at or before p, restored and
// patched with the difference, and resume there.

// goldenLog is the golden run's change log and, for each golden
// checkpoint, the log offset it was taken at.
type goldenLog struct {
	log  *sim.ChangeLog
	offs []int
}

// proofTally counts the quiet rule's outcomes over a campaign's runs:
// proofs that retired a run masked, jumps, and the wall-clock spent in
// Prove. Pure observation; no result reads it.
type proofTally struct {
	proved, jumps atomic.Uint64
	wall          atomic.Int64 // ns
}

// recordLog attaches a change log to eng, the golden workload's engine
// before its Run, with the callbacks that record each checkpoint's log
// offset. It records nothing and returns nil unless eng is an EventSim of
// a campaign with checkpoints.
func (c *Campaign) recordLog(eng sim.Engine) *goldenLog {
	es, ok := eng.(*sim.EventSim)
	cycles := c.checkpointCycles()
	if !ok || len(cycles) == 0 {
		return nil
	}
	g := &goldenLog{log: es.RecordChanges()}
	for _, k := range cycles {
		eng.At(uint64(k)*c.plan.PeriodPS+1, func() { g.offs = append(g.offs, g.log.Len()) })
	}
	return g
}

// changeLog returns the golden change log, indexed, or nil when the
// campaign records none. The first call indexes it. A golden adopted from
// an artifact carries no log: the first call rebuilds it with one
// fault-free replay, which every worker then shares.
func (c *Campaign) changeLog() (*goldenLog, error) {
	c.glogOnce.Do(func() {
		if c.glog == nil {
			eng, err := c.coldEngine()
			if err != nil {
				c.glogErr = err
				return
			}
			g := c.recordLog(eng)
			if g == nil {
				return
			}
			if err := eng.Run(c.plan.DurationPS); err != nil {
				c.glogErr = fmt.Errorf("inject: golden log replay: %v", err)
				return
			}
			c.glog = g
		}
		c.glog.log.Index()
	})
	return c.glog, c.glogErr
}

// quiet applies the quiet rule at golden checkpoint boundary i, where es's
// fault is consumed and its state differs from the checkpoint. proved
// reports the run masked to plan end. Otherwise a k > i names the latest
// checkpoint the run is proved to reach as that checkpoint plus d; k <= i
// means there is nothing to skip.
func (w *worker) quiet(es *sim.EventSim, i int) (d sim.Diff, k int, proved bool, err error) {
	c := w.c
	b := &c.ckpts[i]
	d, ok := es.QuietDiff(b.ck)
	if !ok || slices.ContainsFunc(d.Nets, func(n int32) bool { return slices.Contains(c.plan.Monitors, int(n)) }) {
		return d, i, false, nil
	}
	g, err := c.changeLog()
	if g == nil || err != nil {
		return d, i, false, err
	}
	began := time.Now()
	p := g.log.Prove(b.ck, g.offs[i], d)
	c.tally.wall.Add(int64(time.Since(began)))
	if p == g.log.Len() {
		c.tally.proved.Add(1)
		return d, i, true, nil
	}
	return d, sort.SearchInts(g.offs, p+1) - 1, false, nil
}
