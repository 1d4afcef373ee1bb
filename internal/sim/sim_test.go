package sim

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/vcd"
)

// counterDesign builds a 2-bit synchronous counter with async reset:
// q0 toggles every cycle, q1 = q0 XOR q1 at each edge.
func counterDesign(t testing.TB) *netlist.Flat {
	t.Helper()
	d := netlist.NewDesign("counter")
	m := netlist.NewModule("counter")
	m.AddPort("clk", netlist.Input)
	m.AddPort("rstn", netlist.Input)
	m.AddPort("q0", netlist.Output)
	m.AddPort("q1", netlist.Output)
	m.AddWire("n0")
	m.AddWire("n1")
	m.AddWire("nq0")
	m.AddWire("nq1")
	m.AddInstance("u_inv", "INVX1", map[string]string{"A": "q0", "Y": "n0"})
	m.AddInstance("u_xor", "XOR2X1", map[string]string{"A": "q0", "B": "q1", "Y": "n1"})
	m.AddInstance("u_ff0", "DFFRX1", map[string]string{"D": "n0", "CK": "clk", "RN": "rstn", "Q": "q0", "QN": "nq0"})
	m.AddInstance("u_ff1", "DFFRX1", map[string]string{"D": "n1", "CK": "clk", "RN": "rstn", "Q": "q1", "QN": "nq1"})
	d.AddModule(m)
	d.Top = "counter"
	f, err := netlist.Flatten(d)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func netID(t testing.TB, f *netlist.Flat, name string) int {
	t.Helper()
	n, err := f.NetByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return n.ID
}

const period = 1000

// setupCounter drives clock and reset on the engine: reset released at
// 1500ps, rising edges at 1000, 2000, 3000, ...
func setupCounter(t testing.TB, e Engine, until uint64) {
	t.Helper()
	f := e.Flat()
	if err := DriveClock(e, netID(t, f, "clk"), period, period, until); err != nil {
		t.Fatal(err)
	}
	if err := e.ScheduleInput(0, netID(t, f, "rstn"), logic.L0); err != nil {
		t.Fatal(err)
	}
	if err := e.ScheduleInput(1500, netID(t, f, "rstn"), logic.L1); err != nil {
		t.Fatal(err)
	}
}

// sampleCounter records (q1,q0) just before each rising edge from cycle
// `from` to `to` inclusive.
func sampleCounter(t *testing.T, e Engine, from, to int) []string {
	t.Helper()
	f := e.Flat()
	q0, q1 := netID(t, f, "q0"), netID(t, f, "q1")
	var got []string
	for c := from; c <= to; c++ {
		tm := uint64(c*period) - 10
		e.At(tm, func() {
			got = append(got, fmt.Sprintf("%v%v", e.Value(q1), e.Value(q0)))
		})
	}
	if err := e.Run(uint64(to*period) + period); err != nil {
		t.Fatal(err)
	}
	return got
}

func engines(t testing.TB) map[string]func() Engine {
	f1 := counterDesign(t)
	f2 := counterDesign(t)
	return map[string]func() Engine{
		"EventSim": func() Engine { return NewEventSim(f1) },
		"LevelSim": func() Engine { return NewLevelSim(f2) },
	}
}

func TestCounterSequenceBothEngines(t *testing.T) {
	for name, mk := range engines(t) {
		t.Run(name, func(t *testing.T) {
			e := mk()
			setupCounter(t, e, 9*period)
			got := sampleCounter(t, e, 2, 9)
			// Reset released at 1500: state 00 before edge 2, then counts.
			want := []string{"00", "01", "10", "11", "00", "01", "10", "11"}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: cycle %d state = %s, want %s (all: %v)", name, i+2, got[i], want[i], got)
				}
			}
		})
	}
}

func TestEnginesAgreeCycleByCycle(t *testing.T) {
	var results [][]string
	for _, mk := range engines(t) {
		e := mk()
		setupCounter(t, e, 12*period)
		results = append(results, sampleCounter(t, e, 2, 12))
	}
	for i := range results[0] {
		if results[0][i] != results[1][i] {
			t.Fatalf("engines disagree at sample %d: %v vs %v", i, results[0], results[1])
		}
	}
}

func TestAsyncResetDominates(t *testing.T) {
	for name, mk := range engines(t) {
		t.Run(name, func(t *testing.T) {
			e := mk()
			f := e.Flat()
			setupCounter(t, e, 6*period)
			// Re-assert reset mid-run.
			if err := e.ScheduleInput(3600, netID(t, f, "rstn"), logic.L0); err != nil {
				t.Fatal(err)
			}
			if err := e.Run(4200); err != nil {
				t.Fatal(err)
			}
			if v := e.Value(netID(t, f, "q0")); v != logic.L0 {
				t.Errorf("%s: q0 after async reset = %v, want 0", name, v)
			}
			if v := e.Value(netID(t, f, "q1")); v != logic.L0 {
				t.Errorf("%s: q1 after async reset = %v, want 0", name, v)
			}
		})
	}
}

func TestSEUFlipDiverges(t *testing.T) {
	for name, mk := range engines(t) {
		t.Run(name, func(t *testing.T) {
			e := mk()
			f := e.Flat()
			setupCounter(t, e, 8*period)
			ff0, err := f.CellByPath("u_ff0")
			if err != nil {
				t.Fatal(err)
			}
			// Flip q0's state mid-cycle after cycle 3's edge.
			if err := e.ScheduleFlip(3300, ff0.ID); err != nil {
				t.Fatal(err)
			}
			got := sampleCounter(t, e, 4, 6)
			// Without the flip the pre-edge-4 state would be 10.
			if got[0] == "10" {
				t.Errorf("%s: SEU flip had no effect: %v", name, got)
			}
		})
	}
}

func TestSETPulseCapturedWhenOverlappingEdge(t *testing.T) {
	for name, mk := range engines(t) {
		t.Run(name, func(t *testing.T) {
			e := mk()
			f := e.Flat()
			setupCounter(t, e, 8*period)
			n0 := netID(t, f, "n0")
			// Pulse spanning the rising edge at 3000.
			e.ScheduleForce(2900, n0, logic.L0)
			e.ScheduleRelease(3100, n0)
			got := sampleCounter(t, e, 3, 5)
			// Cycle 3 pre-edge state is 01 (unchanged: pulse is later).
			if got[0] != "01" {
				t.Fatalf("%s: pre-pulse state = %s, want 01", name, got[0])
			}
			// Edge at 3000 should have captured forced D=0 for q0 instead
			// of the correct 0->... wait: q0 was 1, correct next is 0; the
			// force drives 0 as well, so use q1 effect instead: n1 forced?
			// The pulse forces n0 low; correct D0 at edge 3000 is !q0 = 0,
			// so the forced value matches and nothing diverges. Verify q0
			// still follows the nominal sequence.
			if got[1] != "10" {
				t.Errorf("%s: matching-value force must not corrupt: %v", name, got)
			}
		})
	}
}

func TestSETPulseWrongValueCaptured(t *testing.T) {
	for name, mk := range engines(t) {
		t.Run(name, func(t *testing.T) {
			e := mk()
			f := e.Flat()
			setupCounter(t, e, 8*period)
			n0 := netID(t, f, "n0")
			// At edge 3000 the correct D0 is 0 (q0 goes 1->0). Force D0=1
			// across the edge: q0 stays 1, corrupting the count phase.
			e.ScheduleForce(2900, n0, logic.L1)
			e.ScheduleRelease(3100, n0)
			got := sampleCounter(t, e, 4, 5)
			if got[0] == "10" {
				t.Errorf("%s: SET across edge had no effect: %v", name, got)
			}
		})
	}
}

func TestSETPulseBetweenEdgesHarmless(t *testing.T) {
	for name, mk := range engines(t) {
		t.Run(name, func(t *testing.T) {
			e := mk()
			f := e.Flat()
			setupCounter(t, e, 8*period)
			n0 := netID(t, f, "n0")
			// Pulse fully inside a cycle, well clear of both edges.
			e.ScheduleForce(3300, n0, logic.L1)
			e.ScheduleRelease(3500, n0)
			got := sampleCounter(t, e, 4, 6)
			want := []string{"10", "11", "00"}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s: mid-cycle SET corrupted state: %v", name, got)
					break
				}
			}
		})
	}
}

func TestForceReleaseRestoresDriven(t *testing.T) {
	for name, mk := range engines(t) {
		t.Run(name, func(t *testing.T) {
			e := mk()
			f := e.Flat()
			setupCounter(t, e, 4*period)
			n0 := netID(t, f, "n0")
			e.ScheduleForce(2200, n0, logic.L1)
			if err := e.Run(2300); err != nil {
				t.Fatal(err)
			}
			if v := e.Value(n0); v != logic.L1 {
				t.Fatalf("%s: forced value not applied: %v", name, v)
			}
			e.ScheduleRelease(2400, n0)
			if err := e.Run(2600); err != nil {
				t.Fatal(err)
			}
			// After release the inverter drives n0 = !q0 = !1 = 0.
			if v := e.Value(n0); v != logic.L0 {
				t.Errorf("%s: release did not restore driven value: %v", name, v)
			}
		})
	}
}

func TestInertialGlitchFilter(t *testing.T) {
	// EventSim-specific: a pulse shorter than the gate delay must be
	// swallowed by the inertial model.
	d := netlist.NewDesign("glitch")
	m := netlist.NewModule("glitch")
	m.AddPort("a", netlist.Input)
	m.AddPort("y", netlist.Output)
	m.AddInstance("u_inv", "INVX1", map[string]string{"A": "a", "Y": "y"})
	d.AddModule(m)
	d.Top = "glitch"
	f, err := netlist.Flatten(d)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEventSim(f)
	a, y := netID(t, f, "a"), netID(t, f, "y")
	changes := 0
	e.OnNetChange(y, func(uint64, logic.V) { changes++ })
	_ = e.ScheduleInput(0, a, logic.L0)
	// 5ps pulse, shorter than the 12ps inverter delay.
	_ = e.ScheduleInput(100, a, logic.L1)
	_ = e.ScheduleInput(105, a, logic.L0)
	if err := e.Run(500); err != nil {
		t.Fatal(err)
	}
	if v := e.Value(y); v != logic.L1 {
		t.Fatalf("y = %v, want 1", v)
	}
	if changes != 1 { // X -> 1 only; no glitch
		t.Errorf("y changed %d times, want 1 (glitch must be filtered)", changes)
	}
}

func TestMemoryBitWriteHold(t *testing.T) {
	d := netlist.NewDesign("membit")
	m := netlist.NewModule("membit")
	m.AddPort("clk", netlist.Input)
	m.AddPort("d", netlist.Input)
	m.AddPort("we", netlist.Input)
	m.AddPort("q", netlist.Output)
	m.AddInstance("u_bit", "SRAMBITX1", map[string]string{"D": "d", "WE": "we", "CK": "clk", "Q": "q"})
	d.AddModule(m)
	d.Top = "membit"
	f, err := netlist.Flatten(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, mkName := range []EngineKind{KindEvent, KindLevel} {
		e, err := New(mkName, f)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(string(mkName), func(t *testing.T) {
			_ = DriveClock(e, netID(t, f, "clk"), period, period, 6*period)
			_ = e.ScheduleInput(0, netID(t, f, "d"), logic.L1)
			_ = e.ScheduleInput(0, netID(t, f, "we"), logic.L1)
			// Write 1 at edge 1000, then disable writes and change D.
			_ = e.ScheduleInput(1400, netID(t, f, "we"), logic.L0)
			_ = e.ScheduleInput(1600, netID(t, f, "d"), logic.L0)
			if err := e.Run(3500); err != nil {
				t.Fatal(err)
			}
			if v := e.Value(netID(t, f, "q")); v != logic.L1 {
				t.Errorf("memory bit lost its value with WE=0: q=%v", v)
			}
		})
	}
}

func TestStateAccessors(t *testing.T) {
	f := counterDesign(t)
	e := NewEventSim(f)
	ff0, _ := f.CellByPath("u_ff0")
	inv, _ := f.CellByPath("u_inv")
	if _, err := e.State(inv.ID); err == nil {
		t.Error("State on combinational cell must fail")
	}
	if _, err := e.State(-1); err == nil {
		t.Error("State out of range must fail")
	}
	if err := e.FlipState(inv.ID); err == nil {
		t.Error("FlipState on combinational cell must fail")
	}
	setupCounter(t, e, 4*period)
	if err := e.Run(2500); err != nil {
		t.Fatal(err)
	}
	st, err := e.State(ff0.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st != logic.L1 {
		t.Errorf("ff0 state after first counted edge = %v, want 1", st)
	}
}

func TestScheduleInputValidation(t *testing.T) {
	f := counterDesign(t)
	for _, kind := range []EngineKind{KindEvent, KindLevel} {
		e, _ := New(kind, f)
		if err := e.ScheduleInput(0, netID(t, f, "n0"), logic.L1); err == nil {
			t.Errorf("%s: driving an internal net as input must fail", kind)
		}
		if err := e.ScheduleInput(0, 9999, logic.L1); err == nil {
			t.Errorf("%s: out-of-range net must fail", kind)
		}
	}
}

func TestNewUnknownKind(t *testing.T) {
	if _, err := New("bogus", counterDesign(t)); err == nil {
		t.Fatal("unknown engine kind must fail")
	}
}

func TestCellEvalsCounted(t *testing.T) {
	fEv := counterDesign(t)
	ev := NewEventSim(fEv)
	setupCounter(t, ev, 10*period)
	if err := ev.Run(10 * period); err != nil {
		t.Fatal(err)
	}
	fLv := counterDesign(t)
	lv := NewLevelSim(fLv)
	setupCounter(t, lv, 10*period)
	if err := lv.Run(10 * period); err != nil {
		t.Fatal(err)
	}
	if ev.CellEvals() == 0 || lv.CellEvals() == 0 {
		t.Fatal("cell evaluation counters must advance")
	}
}

func TestVCDGoldenVsFaulty(t *testing.T) {
	run := func(inject bool) *vcd.Trace {
		f := counterDesign(t)
		e := NewEventSim(f)
		var buf bytes.Buffer
		w := vcd.NewWriter(&buf)
		mon := []int{netID(t, f, "q0"), netID(t, f, "q1")}
		if err := AttachVCD(e, w, mon); err != nil {
			t.Fatal(err)
		}
		setupCounter(t, e, 8*period)
		if inject {
			ff0, _ := f.CellByPath("u_ff0")
			if err := e.ScheduleFlip(3300, ff0.ID); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Run(8 * period); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(8 * period); err != nil {
			t.Fatal(err)
		}
		tr, err := vcd.Parse(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	golden := run(false)
	golden2 := run(false)
	if vcd.Diverged(golden, golden2, nil) {
		t.Fatal("two golden runs must be identical")
	}
	faulty := run(true)
	if !vcd.Diverged(golden, faulty, nil) {
		t.Fatal("SEU-injected run must diverge from golden")
	}
}

func TestDriveClockValidation(t *testing.T) {
	f := counterDesign(t)
	e := NewEventSim(f)
	if err := DriveClock(e, netID(t, f, "clk"), 1, 0, 100); err == nil {
		t.Error("tiny period must be rejected")
	}
}
