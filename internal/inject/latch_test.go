package inject

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/riscv"
	"repro/internal/sim"
	"repro/internal/socgen"
)

// TestLatchPrefilterAudit runs every injection the latching-window
// prefilter decides through worker.run with the signature detector and
// requires it masked, on the benchmark's three designs at the Table I
// experiment defaults (sample 0.2, at least 3 per cluster, the paper's
// K_N, seed 1+SoC index) on both engines. It also pins the share of SETs
// decided, so the prefilter cannot silently switch off.
func TestLatchPrefilterAudit(t *testing.T) {
	designs := []struct {
		soc  int
		prog riscv.Program
	}{
		{5, riscv.CRCProgram(12)},
		{8, riscv.MemcpyProgram(16)},
		{10, riscv.SortProgram(12)},
	}
	floor := map[sim.EngineKind]float64{sim.KindLevel: 0.90, sim.KindEvent: 0.70}
	for _, kind := range []sim.EngineKind{sim.KindLevel, sim.KindEvent} {
		for _, d := range designs {
			kind, d := kind, d
			t.Run(fmt.Sprintf("%s/SoC%d", kind, d.soc), func(t *testing.T) {
				t.Parallel()
				cfg := socgen.TableIConfigs()[d.soc-1]
				o := DefaultOptions()
				o.SampleFrac, o.MinPerCluster = 0.2, 3
				o.KN = cfg.KN
				o.Seed += uint64(d.soc)
				o.Engine = kind
				run, err := PrepareSoC(cfg, d.prog, fault.DefaultDB(), o)
				if err != nil {
					t.Fatal(err)
				}
				c := run.Campaign
				jobs := c.DrawJobs()
				w := &worker{c: c}
				sets, decided := 0, 0
				for _, b := range c.buildBatches(jobs, 1) {
					for _, idx := range b.idxs {
						inj, err := c.injection(jobs[idx])
						if err != nil {
							t.Fatal(err)
						}
						if inj.Kind == fault.SET {
							sets++
						}
						if b.ckIdx < 0 || !c.latch.decides(&inj) {
							continue
						}
						decided++
						soft, err := w.run(&inj, b.ckIdx, &sigDetector{c: c})
						if err != nil {
							t.Fatal(err)
						}
						if soft {
							t.Errorf("prefilter decided %s at %dps (pulse %dps) masked, simulation says soft error", inj.Path, inj.TimePS, inj.PulsePS)
						}
					}
				}
				share := float64(decided) / float64(sets)
				t.Logf("decided %d of %d SETs (%.1f%%)", decided, sets, 100*share)
				if share < floor[kind] {
					t.Errorf("prefilter decided %.1f%% of SETs, want at least %.0f%%", 100*share, 100*floor[kind])
				}
			})
		}
	}
}

// latchDesign is a hand-built netlist for the static pass: a buffered
// clock, a reset gated by an AND, and a known-delay data chain
// u_inv (12 ps) → u_buf (18 ps) → u_and (28 ps) → u_ff.D, with u_inv also
// driving the monitored output y through u_out (12 ps).
func latchDesign(t *testing.T) (*netlist.Flat, *socgen.StimulusPlan) {
	t.Helper()
	d := netlist.NewDesign("latch")
	m := netlist.NewModule("latch")
	for _, p := range []string{"clk", "rstn", "en", "a", "b"} {
		m.AddPort(p, netlist.Input)
	}
	m.AddPort("q", netlist.Output)
	m.AddPort("y", netlist.Output)
	for _, w := range []string{"ck1", "rn", "n1", "n2", "dd", "qn"} {
		m.AddWire(w)
	}
	m.AddInstance("u_ckbuf", "BUFX2", map[string]string{"A": "clk", "Y": "ck1"})
	m.AddInstance("u_rand", "AND2X1", map[string]string{"A": "rstn", "B": "en", "Y": "rn"})
	m.AddInstance("u_inv", "INVX1", map[string]string{"A": "a", "Y": "n1"})
	m.AddInstance("u_buf", "BUFX2", map[string]string{"A": "n1", "Y": "n2"})
	m.AddInstance("u_and", "AND2X1", map[string]string{"A": "n2", "B": "b", "Y": "dd"})
	m.AddInstance("u_out", "INVX1", map[string]string{"A": "n1", "Y": "y"})
	m.AddInstance("u_ff", "DFFRX1", map[string]string{"D": "dd", "CK": "ck1", "RN": "rn", "Q": "q", "QN": "qn"})
	d.AddModule(m)
	d.Top = "latch"
	f, err := netlist.Flatten(d)
	if err != nil {
		t.Fatal(err)
	}
	clk, err := f.NetByName("clk")
	if err != nil {
		t.Fatal(err)
	}
	return f, &socgen.StimulusPlan{ClockNet: clk.ID, PeriodPS: 1000, DurationPS: 10000, Monitors: f.POs}
}

func cellID(t *testing.T, f *netlist.Flat, path string) int {
	t.Helper()
	c, err := f.CellByPath(path)
	if err != nil {
		t.Fatal(err)
	}
	return c.ID
}

// TestLatchTableStatic pins the static pass on latchDesign: the clock
// buffer and the reset AND form ctlCone, D(c) sums the known delays to the
// flop's D pin or the monitor, and the clock reaches the flop through the
// 18 ps buffer — all delays zero on LevelSim.
func TestLatchTableStatic(t *testing.T) {
	f, plan := latchDesign(t)
	for _, kind := range []sim.EngineKind{sim.KindLevel, sim.KindEvent} {
		lt := newLatchTable(f, plan, kind, 980)
		if lt == nil {
			t.Fatalf("%s: no table for a buffered clock", kind)
		}
		for path, want := range map[string]bool{"u_ckbuf": true, "u_rand": true, "u_inv": false, "u_buf": false, "u_and": false, "u_out": false} {
			if got := lt.ctlCone[cellID(t, f, path)]; got != want {
				t.Errorf("%s: %s in ctlCone = %v, want %v", kind, path, got, want)
			}
		}
		wantClk, wantD := uint64(0), map[string]uint64{}
		if kind == sim.KindEvent {
			wantClk = 18
			wantD = map[string]uint64{"u_inv": 18 + 28, "u_buf": 28, "u_and": 0, "u_out": 0}
			if lt.delay == nil {
				t.Fatalf("%s: no path delays", kind)
			}
		} else if lt.delay != nil {
			t.Errorf("%s: path delays %v, want none", kind, lt.delay)
		}
		for path, want := range wantD {
			if got := lt.delay[cellID(t, f, path)]; got != want {
				t.Errorf("%s: D(%s) = %d, want %d", kind, path, got, want)
			}
		}
		if lt.minClk != wantClk || lt.maxClk != wantClk {
			t.Errorf("%s: clock arrival [%d, %d], want %d", kind, lt.minClk, lt.maxClk, wantClk)
		}
	}
}

// TestLatchTableNoGatedClock: a flop whose clock pin the clock reaches only
// through a gate gets no table, since its capture edges need not follow
// the clock's rising instants.
func TestLatchTableNoGatedClock(t *testing.T) {
	d := netlist.NewDesign("gated")
	m := netlist.NewModule("gated")
	for _, p := range []string{"clk", "en", "a"} {
		m.AddPort(p, netlist.Input)
	}
	m.AddPort("q", netlist.Output)
	m.AddWire("gck")
	m.AddWire("qn")
	m.AddInstance("u_gate", "AND2X1", map[string]string{"A": "clk", "B": "en", "Y": "gck"})
	m.AddInstance("u_ff", "DFFX1", map[string]string{"D": "a", "CK": "gck", "Q": "q", "QN": "qn"})
	d.AddModule(m)
	d.Top = "gated"
	f, err := netlist.Flatten(d)
	if err != nil {
		t.Fatal(err)
	}
	clk, _ := f.NetByName("clk")
	plan := &socgen.StimulusPlan{ClockNet: clk.ID, PeriodPS: 1000, DurationPS: 10000, Monitors: f.POs}
	if lt := newLatchTable(f, plan, sim.KindEvent, 980); lt != nil {
		t.Fatal("gated clock: got a prefilter table")
	}
}

// TestLatchWindowBounds: a window that ends or starts exactly on a capture
// instant k·P+18 or a sampling instant k·P−20 is not decided; one
// picosecond clear of it is. u_and's D is 0, so the window is
// [t+1, t+31] for a 30 ps pulse on EventSim.
func TestLatchWindowBounds(t *testing.T) {
	f, plan := latchDesign(t)
	lt := newLatchTable(f, plan, sim.KindEvent, 980)
	and, inv, buf := cellID(t, f, "u_and"), cellID(t, f, "u_inv"), cellID(t, f, "u_ckbuf")
	set := func(cell int, t uint64) *Injection {
		return &Injection{CellID: cell, Kind: fault.SET, TimePS: t, PulsePS: 30}
	}
	for _, tc := range []struct {
		name string
		inj  *Injection
		want bool
	}{
		{"ends on capture 2018", set(and, 1987), false},
		{"ends just before capture", set(and, 1986), true},
		{"starts on capture 2018", set(and, 2017), false},
		{"starts just after capture", set(and, 2018), true},
		{"ends on sample 2980", set(and, 2949), false},
		{"ends just before sample", set(and, 2948), true},
		{"starts on sample 2980", set(and, 2979), false},
		{"starts just after sample", set(and, 2980), true},
		// u_inv's D of 46 ps widens the window to [t+1, t+77].
		{"path delay reaches sample", set(inv, 2903), false},
		{"path delay stops short", set(inv, 2902), true},
		{"clock buffer is in ctlCone", set(buf, 2500), false},
		{"SEU", &Injection{CellID: cellID(t, f, "u_ff"), Kind: fault.SEU, TimePS: 2500}, false},
	} {
		if got := lt.decides(tc.inj); got != tc.want {
			t.Errorf("%s: decides = %v, want %v", tc.name, got, tc.want)
		}
	}
	if (*latchTable)(nil).decides(set(and, 2500)) {
		t.Error("nil table decided an injection")
	}
}

// TestLatchOracleStartsSimulate: an injection the prefilter decides from
// its checkpoint costs no eval and counts as a pruned warm start, while
// the same injection started before the first checkpoint (ckIdx < 0), a
// cold CompareVCD campaign and a ColdStart campaign simulate it — and
// all of them judge it masked.
func TestLatchOracleStartsSimulate(t *testing.T) {
	cfg, err := socgen.ConfigByIndex(1)
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions()
	o.SampleFrac = 0.1
	o.Engine = sim.KindLevel
	run, err := PrepareSoC(cfg, riscv.MemcpyProgram(16), fault.DefaultDB(), o)
	if err != nil {
		t.Fatal(err)
	}
	c := run.Campaign
	pick, ckIdx := -1, -1
	for i, j := range c.DrawJobs() {
		inj, err := c.injection(j)
		if err != nil {
			t.Fatal(err)
		}
		if _, idx := c.checkpointBefore(j.TimePS); idx >= 0 && c.latch.decides(&inj) {
			pick, ckIdx = i, idx
			break
		}
	}
	if pick < 0 {
		t.Fatal("no decided injection in the plan")
	}
	j := c.DrawJobs()[pick]
	w := &worker{c: c}
	if inj, err := w.inject(j, ckIdx); err != nil || inj.SoftError {
		t.Fatalf("decided run: soft %v, err %v", inj.SoftError, err)
	}
	if w.Work != (Work{WarmStarts: 1, PrunedRuns: 1}) {
		t.Fatalf("decided run did work %+v, want one pruned warm start and nothing else", w.Work)
	}
	w = &worker{c: c}
	if inj, err := w.inject(j, -1); err != nil || inj.SoftError {
		t.Fatalf("cold start: soft %v, err %v", inj.SoftError, err)
	}
	if w.InjectEvals == 0 || w.WarmStarts != 0 {
		t.Fatalf("cold start before the first checkpoint was decided: %+v", w.Work)
	}
	for _, mode := range []struct {
		name             string
		cold, compareVCD bool
	}{{"cold CompareVCD", true, true}, {"ColdStart", true, false}} {
		o.ColdStart, o.CompareVCD = mode.cold, mode.compareVCD
		cold, err := PrepareSoC(cfg, riscv.MemcpyProgram(16), fault.DefaultDB(), o)
		if err != nil {
			t.Fatal(err)
		}
		res := &Result{}
		if err := cold.Campaign.RunJobs(res, pick, pick+1); err != nil {
			t.Fatal(err)
		}
		if res.InjectEvals == 0 || res.WarmStarts != 0 || res.Injections[0].SoftError {
			t.Errorf("%s: work %+v, soft %v; want a simulated masked run", mode.name, res.Work, res.Injections[0].SoftError)
		}
	}
}
