package vpi

import (
	"testing"

	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
)

func dutFlat(t *testing.T) *netlist.Flat {
	t.Helper()
	d := netlist.NewDesign("dut")
	m := netlist.NewModule("dut")
	m.AddPort("clk", netlist.Input)
	m.AddPort("d", netlist.Input)
	m.AddPort("q", netlist.Output)
	m.AddWire("nq")
	m.AddWire("dn")
	m.AddInstance("u_inv", "INVX1", map[string]string{"A": "d", "Y": "dn"})
	m.AddInstance("u_ff", "DFFX1", map[string]string{"D": "dn", "CK": "clk", "Q": "q", "QN": "nq"})
	d.AddModule(m)
	d.Top = "dut"
	f, err := netlist.Flatten(d)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// session binds a VPI session to a fresh engine on the test design and
// returns both.
func session(t *testing.T) (*Interface, sim.Engine) {
	eng := sim.NewEventSim(dutFlat(t))
	return New(eng), eng
}

func TestHandleByName(t *testing.T) {
	v, _ := session(t)
	h, err := v.HandleByName("dn")
	if err != nil {
		t.Fatal(err)
	}
	if h.Kind != ObjNet {
		t.Errorf("dn kind = %v, want net", h.Kind)
	}
	h2, err := v.HandleByName("u_ff")
	if err != nil {
		t.Fatal(err)
	}
	if h2.Kind != ObjReg {
		t.Errorf("u_ff kind = %v, want reg", h2.Kind)
	}
	if _, err := v.HandleByName("u_inv"); err == nil {
		t.Error("combinational cell must not get a handle")
	}
	if _, err := v.HandleByName("nothing"); err == nil {
		t.Error("unknown name must fail")
	}
}

func TestDirectHandles(t *testing.T) {
	v, eng := session(t)
	f := eng.Flat()
	if _, err := v.NetHandle(0); err != nil {
		t.Error(err)
	}
	if _, err := v.NetHandle(len(f.Nets)); err == nil {
		t.Error("out-of-range net handle must fail")
	}
	ff, _ := f.CellByPath("u_ff")
	if _, err := v.RegHandle(ff.ID); err != nil {
		t.Error(err)
	}
	inv, _ := f.CellByPath("u_inv")
	if _, err := v.RegHandle(inv.ID); err == nil {
		t.Error("reg handle on comb cell must fail")
	}
}

func runClocked(t *testing.T, eng sim.Engine, until uint64) {
	t.Helper()
	f := eng.Flat()
	clk, _ := f.NetByName("clk")
	din, _ := f.NetByName("d")
	if err := sim.DriveClock(eng, clk.ID, 1000, 1000, until); err != nil {
		t.Fatal(err)
	}
	if err := eng.ScheduleInput(0, din.ID, logic.L0); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(until); err != nil {
		t.Fatal(err)
	}
}

func TestGetValueAndCallbacks(t *testing.T) {
	v, eng := session(t)
	hq, err := v.HandleByName("q")
	if err != nil {
		t.Fatal(err)
	}
	changes := 0
	if err := v.CbValueChange(hq, func(uint64, logic.V) { changes++ }); err != nil {
		t.Fatal(err)
	}
	runClocked(t, eng, 3000)
	val, err := v.GetValue(hq)
	if err != nil {
		t.Fatal(err)
	}
	// d=0 -> dn=1 -> q captures 1 at the first edge.
	if val != logic.L1 {
		t.Errorf("q = %v, want 1", val)
	}
	if changes == 0 {
		t.Error("value-change callback never fired")
	}
	hff, _ := v.HandleByName("u_ff")
	st, err := v.GetValue(hff)
	if err != nil {
		t.Fatal(err)
	}
	if st != logic.L1 {
		t.Errorf("reg state = %v, want 1", st)
	}
}

func TestForceReleaseViaVPI(t *testing.T) {
	v, eng := session(t)
	hdn, _ := v.HandleByName("dn")
	if err := v.Force(hdn, 1400, logic.L0); err != nil {
		t.Fatal(err)
	}
	if err := v.Release(hdn, 2600); err != nil {
		t.Fatal(err)
	}
	runClocked(t, eng, 4000)
	// Forced 0 spans the edge at 2000; q captures 0 there, then recaptures
	// 1 at 3000 after release.
	hq, _ := v.HandleByName("q")
	got, _ := v.GetValue(hq)
	if got != logic.L1 {
		t.Errorf("q after recovery = %v, want 1", got)
	}
	hff, _ := v.HandleByName("u_ff")
	if err := v.Force(hff, 0, logic.L1); err == nil {
		t.Error("Force on reg handle must fail")
	}
	if err := v.Release(hff, 0); err == nil {
		t.Error("Release on reg handle must fail")
	}
	if err := v.CbValueChange(hff, nil); err == nil {
		t.Error("CbValueChange on reg handle must fail")
	}
}

func TestFlipRegViaVPI(t *testing.T) {
	v, eng := session(t)
	hff, _ := v.HandleByName("u_ff")
	if err := v.FlipReg(hff, 2500); err != nil {
		t.Fatal(err)
	}
	hdn, _ := v.HandleByName("dn")
	if err := v.FlipReg(hdn, 2500); err == nil {
		t.Error("FlipReg on net handle must fail")
	}
	var sampled logic.V
	v.CbAtTime(2700, func() {
		s, _ := v.GetValue(hff)
		sampled = s
	})
	runClocked(t, eng, 2800)
	if sampled != logic.L0 {
		t.Errorf("flipped state = %v, want 0 (was 1)", sampled)
	}
}
