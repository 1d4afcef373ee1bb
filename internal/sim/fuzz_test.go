package sim

import (
	"fmt"
	"testing"

	"repro/internal/cell"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/xrand"
)

// randomSyncDesign builds a random synchronous circuit: data inputs, an
// acyclic combinational cloud of the named library cells (a default
// handful when none are named), and DFFR state registers fed back into
// the cloud — the general shape of any clocked netlist.
func randomSyncDesign(rng *xrand.RNG, combCells ...string) *netlist.Flat {
	return randomSyncDesignOf(rng, []string{"DFFRX1"}, combCells...)
}

// randomSyncDesignOf is randomSyncDesign with each state register drawn
// from the named storage cells: its clock on clk, an asynchronous
// reset or set on rstn, and every other input (data, enable, write
// enable) on a random net of the cloud.
func randomSyncDesignOf(rng *xrand.RNG, flops []string, combCells ...string) *netlist.Flat {
	d := netlist.NewDesign("fuzzsync")
	m := netlist.NewModule("fuzzsync")
	m.AddPort("clk", netlist.Input)
	m.AddPort("rstn", netlist.Input)
	nIn := 2 + rng.Intn(3)
	avail := []string{}
	for i := 0; i < nIn; i++ {
		avail = append(avail, m.AddPort(fmt.Sprintf("d%d", i), netlist.Input))
	}
	// State registers: declare Q wires first so gates can consume them.
	nFF := 1 + rng.Intn(4)
	qs := make([]string, nFF)
	for i := range qs {
		qs[i] = m.AddWire(fmt.Sprintf("q%d", i))
		avail = append(avail, qs[i])
	}
	if len(combCells) == 0 {
		combCells = []string{"INVX1", "NAND2X1", "NOR2X1", "XOR2X1", "AOI21X1", "MUX2X1", "AND3X1"}
	}
	nGates := 3 + rng.Intn(10)
	for g := 0; g < nGates; g++ {
		name := combCells[rng.Intn(len(combCells))]
		def := cell.MustLookup(name)
		conns := map[string]string{}
		for _, p := range def.Inputs {
			conns[p] = avail[rng.Intn(len(avail))]
		}
		for j, p := range def.Outputs {
			conns[p] = m.AddWire(fmt.Sprintf("g%d_%d", g, j))
		}
		m.AddInstance(fmt.Sprintf("u_g%d", g), name, conns)
		for _, p := range def.Outputs {
			avail = append(avail, conns[p])
		}
	}
	// Close the loop: each FF samples a random comb net. Note qs entries
	// are in avail, so a flop may sample another flop directly.
	for i := 0; i < nFF; i++ {
		name := flops[0]
		if len(flops) > 1 {
			name = flops[rng.Intn(len(flops))]
		}
		def := cell.MustLookup(name)
		conns := map[string]string{"Q": qs[i]}
		for _, p := range def.Inputs {
			switch p {
			case def.Seq.Clock:
				conns[p] = "clk"
			case def.Seq.AsyncResetN, def.Seq.AsyncSetN:
				conns[p] = "rstn"
			default:
				conns[p] = avail[rng.Intn(len(avail))]
			}
		}
		if def.Seq.HasQN {
			conns["QN"] = m.AddWire(fmt.Sprintf("qn%d", i))
		}
		m.AddInstance(fmt.Sprintf("u_ff%d", i), name, conns)
	}
	// Observable outputs.
	for i := 0; i < 2; i++ {
		po := m.AddPort(fmt.Sprintf("y%d", i), netlist.Output)
		m.AddInstance(fmt.Sprintf("u_y%d", i), "BUFX2", map[string]string{
			"A": avail[len(avail)-1-i], "Y": po,
		})
	}
	d.AddModule(m)
	d.Top = "fuzzsync"
	f, err := netlist.Flatten(d)
	if err != nil {
		// The generator only wires forward, so this cannot loop; any
		// failure is a generator bug worth surfacing loudly.
		panic(err)
	}
	return f
}

// TestEnginesEquivalentFuzz drives random synchronous circuits with random
// stimulus on both engines and requires identical pre-edge sampled values
// on every net, every cycle — the strongest cross-check the two independent
// simulator implementations get.
func TestEnginesEquivalentFuzz(t *testing.T) {
	rng := xrand.New(424242)
	const period = 4000
	const cycles = 12
	for trial := 0; trial < 60; trial++ {
		f := randomSyncDesign(rng)
		// Build a shared stimulus: reset release, clock, random data
		// toggles mid-cycle.
		var sts []Stimulus
		clkNet, rstnNet := -1, -1
		var dataNets []int
		for _, n := range f.Nets {
			if !n.IsPI {
				continue
			}
			switch n.Name {
			case "clk":
				clkNet = n.ID
			case "rstn":
				rstnNet = n.ID
			default:
				dataNets = append(dataNets, n.ID)
			}
		}
		sts = append(sts, Stimulus{Time: 0, Net: rstnNet, Val: logic.L0})
		sts = append(sts, Stimulus{Time: period / 2, Net: rstnNet, Val: logic.L1})
		for _, dn := range dataNets {
			sts = append(sts, Stimulus{Time: 0, Net: dn, Val: logic.FromBool(rng.Intn(2) == 1)})
		}
		for k := 1; k < cycles; k++ {
			for _, dn := range dataNets {
				if rng.Intn(2) == 0 {
					continue
				}
				tm := uint64(k)*period + period/4
				sts = append(sts, Stimulus{Time: tm, Net: dn, Val: logic.FromBool(rng.Intn(2) == 1)})
			}
		}

		run := func(kind EngineKind) [][]logic.V {
			e, err := New(kind, f)
			if err != nil {
				t.Fatal(err)
			}
			if err := DriveClock(e, clkNet, period, period, cycles*period); err != nil {
				t.Fatal(err)
			}
			if err := ApplyStimuli(e, sts); err != nil {
				t.Fatal(err)
			}
			var samples [][]logic.V
			for k := 2; k <= cycles; k++ {
				tm := uint64(k)*period - 15
				e.At(tm, func() {
					row := make([]logic.V, len(f.Nets))
					for i := range f.Nets {
						row[i] = e.Value(i)
					}
					samples = append(samples, row)
				})
			}
			if err := e.Run(uint64(cycles) * period); err != nil {
				t.Fatal(err)
			}
			return samples
		}
		ev := run(KindEvent)
		lv := run(KindLevel)
		if len(ev) != len(lv) {
			t.Fatalf("trial %d: sample count differs", trial)
		}
		for k := range ev {
			for nid := range ev[k] {
				if ev[k][nid] != lv[k][nid] {
					t.Fatalf("trial %d: engines disagree at cycle %d on net %s: %v vs %v",
						trial, k+2, f.Nets[nid].Name, ev[k][nid], lv[k][nid])
				}
			}
		}
	}
}

// TestSEUEquivalenceFuzz injects the same SEU into both engines on random
// circuits and requires the corrupted trajectories to stay identical.
func TestSEUEquivalenceFuzz(t *testing.T) {
	rng := xrand.New(99)
	const period = 4000
	const cycles = 10
	for trial := 0; trial < 30; trial++ {
		f := randomSyncDesign(rng)
		seq := f.SequentialCells()
		victim := seq[rng.Intn(len(seq))]
		// Strike in the first half of a cycle, leaving at least half a
		// period before the next edge: the event-driven engine propagates
		// the flip with real gate delays, and only when the whole cone
		// settles before the capture edge are the two engines' captured
		// states comparable.
		flipAt := uint64(3+rng.Intn(4))*period + period/4 + uint64(rng.Intn(period/4))
		var clkNet, rstnNet int
		for _, n := range f.Nets {
			if n.IsPI && n.Name == "clk" {
				clkNet = n.ID
			}
			if n.IsPI && n.Name == "rstn" {
				rstnNet = n.ID
			}
		}
		run := func(kind EngineKind) [][]logic.V {
			e, _ := New(kind, f)
			_ = DriveClock(e, clkNet, period, period, cycles*period)
			_ = e.ScheduleInput(0, rstnNet, logic.L0)
			_ = e.ScheduleInput(period/2, rstnNet, logic.L1)
			for _, n := range f.Nets {
				if n.IsPI && n.Name != "clk" && n.Name != "rstn" {
					_ = e.ScheduleInput(0, n.ID, logic.L1)
				}
			}
			if err := e.ScheduleFlip(flipAt, victim); err != nil {
				t.Fatal(err)
			}
			var samples [][]logic.V
			for k := 2; k <= cycles; k++ {
				tm := uint64(k)*period - 15
				e.At(tm, func() {
					row := make([]logic.V, len(f.Nets))
					for i := range f.Nets {
						row[i] = e.Value(i)
					}
					samples = append(samples, row)
				})
			}
			if err := e.Run(uint64(cycles) * period); err != nil {
				t.Fatal(err)
			}
			return samples
		}
		ev, lv := run(KindEvent), run(KindLevel)
		for k := range ev {
			for nid := range ev[k] {
				if ev[k][nid] != lv[k][nid] {
					t.Fatalf("trial %d: engines disagree after SEU (victim %s flipped at %dps) at cycle %d on net %s: event=%v level=%v",
						trial, f.Cells[victim].Path, flipAt, k+2, f.Nets[nid].Name, ev[k][nid], lv[k][nid])
				}
			}
		}
	}
}
