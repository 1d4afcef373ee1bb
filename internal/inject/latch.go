package inject

import (
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/socgen"
)

// The latching-window prefilter: latching-window masking (Shivakumar et
// al., DSN 2002) used as a cut ahead of simulation. An SET forces the
// struck cell's output net over [t+1, t+1+PulsePS]. If it drives no clock
// or asynchronous set/reset pin, flop state can only take the pulse in at
// a capture edge, and the signature detector reads the monitors only at
// sampling instants. So a pulse whose window — widened by the longest
// combinational path delay the perturbation can still travel after
// release — holds neither cannot change the verdict: the run is masked,
// and a checkpoint start under the signature detector decides it without
// restoring or simulating anything. The cut is exact by construction on
// LevelSim; on EventSim it rests on the D(c) bound and the audit
// (DESIGN.md, "Latching-window prefilter"). TestLatchPrefilterAudit
// re-simulates every decision on the benchmark designs.

// latchTable is the campaign's static prefilter table, computed once from
// the netlist in prepare. A nil table decides nothing.
type latchTable struct {
	// ctlCone marks the cells with a combinational path to a sequential
	// cell's clock or asynchronous set/reset pin.
	ctlCone []bool
	// delay is D(c): the longest sum of DelayPS from cell c's outputs
	// through combinational fan-out to any sequential input or monitor
	// net. Nil on LevelSim, whose delays are all zero.
	delay []uint64
	// Capture edges arrive at the flops' clock pins at
	// k·period + [minClk, maxClk]; monitors are sampled at
	// k·period + sampleOff.
	period, minClk, maxClk, sampleOff uint64
}

// newLatchTable runs the static pass over f. It returns nil — no
// prefilter — when some sequential cell's clock pin is not reached from
// plan.ClockNet through buffers alone (a gated, inverted or derived
// clock), since its capture edges then need not follow the clock's rising
// instants.
func newLatchTable(f *netlist.Flat, plan *socgen.StimulusPlan, kind sim.EngineKind, sampleOff uint64) *latchTable {
	lt := &latchTable{ctlCone: make([]bool, len(f.Cells)), period: plan.PeriodPS, sampleOff: sampleOff}
	event := kind == sim.KindEvent

	// Clock arrival: a forward walk from the clock input through buffers.
	// A buffer has one input, so the walk is a tree and visits every net
	// once.
	arrival := make([]int64, len(f.Nets))
	for i := range arrival {
		arrival[i] = -1
	}
	arrival[plan.ClockNet] = 0
	stack := []int{plan.ClockNet}
	for len(stack) > 0 {
		nid := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, fo := range f.Nets[nid].Fanout {
			c := f.Cells[fo.Cell]
			if !isBuffer(c) {
				continue
			}
			d := int64(0)
			if event {
				d = c.Def.DelayPS
			}
			arrival[c.Out[0]] = arrival[nid] + d
			stack = append(stack, c.Out[0])
		}
	}
	first := true
	for _, c := range f.Cells {
		if !c.Def.IsSequential() {
			continue
		}
		a := arrival[c.In[c.Def.InputIndex(c.Def.Seq.Clock)]]
		if a < 0 {
			return nil
		}
		if first {
			lt.minClk, lt.maxClk, first = uint64(a), uint64(a), false
		}
		lt.minClk, lt.maxClk = min(lt.minClk, uint64(a)), max(lt.maxClk, uint64(a))
	}

	// ctlCone: a backward walk from every clock and async pin net through
	// combinational drivers, stopping at sequential cells.
	stack = stack[:0]
	for _, c := range f.Cells {
		if s := c.Def.Seq; s != nil {
			for _, pin := range []string{s.Clock, s.AsyncResetN, s.AsyncSetN} {
				if pin != "" {
					stack = append(stack, c.In[c.Def.InputIndex(pin)])
				}
			}
		}
	}
	for len(stack) > 0 {
		nid := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		drv := f.Nets[nid].Driver
		if drv < 0 || lt.ctlCone[drv] || f.Cells[drv].Def.IsSequential() {
			continue
		}
		lt.ctlCone[drv] = true
		stack = append(stack, f.Cells[drv].In...)
	}

	if event {
		lt.delay = pathDelays(f)
	}
	return lt
}

// isBuffer reports whether c is a single-input combinational cell that
// passes both known levels through unchanged, so a rising clock edge
// stays rising. With one input and one output, a LUT entry's index is the
// input value and the entry is the output value.
func isBuffer(c *netlist.FlatCell) bool {
	lut := c.Def.LUT
	return lut != nil && len(c.In) == 1 && len(c.Out) == 1 &&
		lut[logic.L0] == uint8(logic.L0) && lut[logic.L1] == uint8(logic.L1)
}

// pathDelays computes D(c) for every combinational cell in one pass by
// descending level: a fan-out cell has a higher level than its driver, so
// its D is final when the driver reads it. A path ends at a sequential
// input or at a net with no combinational fan-out — every monitor among
// them — so a sequential cell or monitor reached directly adds nothing.
func pathDelays(f *netlist.Flat) []uint64 {
	byLevel := make([][]*netlist.FlatCell, f.MaxLevel+1)
	for _, c := range f.Cells {
		if !c.Def.IsSequential() {
			byLevel[c.Level] = append(byLevel[c.Level], c)
		}
	}
	delay := make([]uint64, len(f.Cells))
	for l := f.MaxLevel; l > 0; l-- {
		for _, c := range byLevel[l] {
			for _, nid := range c.Out {
				for _, fo := range f.Nets[nid].Fanout {
					g := f.Cells[fo.Cell]
					if p := uint64(g.Def.DelayPS) + delay[g.ID]; !g.Def.IsSequential() && p > delay[c.ID] {
						delay[c.ID] = p
					}
				}
			}
		}
	}
	return delay
}

// decides reports whether inj is an SET the table proves masked: the
// struck cell is outside ctlCone, and [t+1, t+1+PulsePS+D(c)], bounds
// inclusive, holds no capture instant and no sampling instant.
func (lt *latchTable) decides(inj *Injection) bool {
	if lt == nil || inj.Kind != fault.SET || lt.ctlCone[inj.CellID] {
		return false
	}
	lo := inj.TimePS + 1
	hi := lo + inj.PulsePS
	if lt.delay != nil {
		hi += lt.delay[inj.CellID]
	}
	return !holds(lo, hi, lt.period, lt.minClk, lt.maxClk) && !holds(lo, hi, lt.period, lt.sampleOff, lt.sampleOff)
}

// holds reports whether [lo, hi] contains an instant k·period + off for
// some k ≥ 0 and off in [offLo, offHi].
func holds(lo, hi, period, offLo, offHi uint64) bool {
	var k uint64 // the first k whose span ends at or after lo
	if lo > offHi {
		k = (lo - offHi + period - 1) / period
	}
	return k*period+offLo <= hi
}
