package netlist

import (
	"bytes"
	"strings"
	"testing"
)

// buildAdderBit returns a module computing S = A^B^CI, CO via majority
// using explicit gates, to exercise multi-gate modules.
func buildAdderBit() *Module {
	m := NewModule("adder_bit")
	m.AddPort("A", Input)
	m.AddPort("B", Input)
	m.AddPort("CI", Input)
	m.AddPort("S", Output)
	m.AddPort("CO", Output)
	m.AddInstance("u_fa", "FAX1", map[string]string{
		"A": "A", "B": "B", "CI": "CI", "S": "S", "CO": "CO",
	})
	return m
}

// buildHierDesign returns a two-level design: top instantiates two adder
// bits plus a DFF pipeline register.
func buildHierDesign() *Design {
	d := NewDesign("hier")
	d.AddModule(buildAdderBit())
	top := NewModule("top")
	top.AddPort("clk", Input)
	top.AddPort("a0", Input)
	top.AddPort("b0", Input)
	top.AddPort("a1", Input)
	top.AddPort("b1", Input)
	top.AddPort("sum0", Output)
	top.AddPort("sum1", Output)
	top.AddWire("c0")
	top.AddWire("c1")
	top.AddWire("s0")
	top.AddWire("s1")
	top.AddWire("zero")
	top.AddWire("nq0")
	top.AddWire("nq1")
	top.AddInstance("u_tie", "TIELO", map[string]string{"Y": "zero"})
	top.AddInstance("u_bit0", "adder_bit", map[string]string{
		"A": "a0", "B": "b0", "CI": "zero", "S": "s0", "CO": "c0",
	})
	top.AddInstance("u_bit1", "adder_bit", map[string]string{
		"A": "a1", "B": "b1", "CI": "c0", "S": "s1", "CO": "c1",
	})
	top.AddInstance("u_ff0", "DFFX1", map[string]string{
		"D": "s0", "CK": "clk", "Q": "sum0", "QN": "nq0",
	})
	top.AddInstance("u_ff1", "DFFX1", map[string]string{
		"D": "s1", "CK": "clk", "Q": "sum1", "QN": "nq1",
	})
	d.AddModule(top)
	d.Top = "top"
	return d
}

func TestValidateOK(t *testing.T) {
	if err := buildHierDesign().Validate(); err != nil {
		t.Fatalf("valid design rejected: %v", err)
	}
}

func TestValidateMissingTop(t *testing.T) {
	d := NewDesign("x")
	d.Top = "nope"
	if err := d.Validate(); err == nil {
		t.Fatal("missing top must fail validation")
	}
}

func TestValidateUnknownCell(t *testing.T) {
	d := NewDesign("x")
	m := NewModule("top")
	m.AddPort("a", Input)
	m.AddPort("y", Output)
	m.AddInstance("u1", "NOT_A_CELL", map[string]string{"A": "a", "Y": "y"})
	d.AddModule(m)
	d.Top = "top"
	if err := d.Validate(); err == nil || !strings.Contains(err.Error(), "NOT_A_CELL") {
		t.Fatalf("unknown cell not reported: %v", err)
	}
}

func TestValidateDoubleDriver(t *testing.T) {
	d := NewDesign("x")
	m := NewModule("top")
	m.AddPort("a", Input)
	m.AddPort("y", Output)
	m.AddInstance("u1", "INVX1", map[string]string{"A": "a", "Y": "y"})
	m.AddInstance("u2", "INVX1", map[string]string{"A": "a", "Y": "y"})
	d.AddModule(m)
	d.Top = "top"
	if err := d.Validate(); err == nil || !strings.Contains(err.Error(), "driven by both") {
		t.Fatalf("double driver not reported: %v", err)
	}
}

func TestValidateUnconnectedPort(t *testing.T) {
	d := NewDesign("x")
	m := NewModule("top")
	m.AddPort("a", Input)
	m.AddPort("y", Output)
	m.AddInstance("u1", "NAND2X1", map[string]string{"A": "a", "Y": "y"})
	d.AddModule(m)
	d.Top = "top"
	if err := d.Validate(); err == nil || !strings.Contains(err.Error(), "unconnected") {
		t.Fatalf("unconnected port not reported: %v", err)
	}
}

// TestValidateErrorsDeterministic: a design with two faults of one kind
// reports the same one on every run, whatever order the Conns map walks
// in — the first unconnected port in declaration order, the first unknown
// port in name order.
func TestValidateErrorsDeterministic(t *testing.T) {
	design := func(conns map[string]string) *Design {
		d := NewDesign("x")
		m := NewModule("top")
		m.AddPort("a", Input)
		m.AddPort("b", Input)
		m.AddPort("ck", Input)
		m.AddWire("q")
		m.AddWire("qn")
		m.AddInstance("u1", "DFFX1", conns)
		d.AddModule(m)
		d.Top = "top"
		return d
	}
	for _, tc := range []struct {
		conns map[string]string
		want  string
	}{
		// D and Q unconnected: D is declared first.
		{map[string]string{"CK": "ck", "QN": "qn"}, `port "D" unconnected`},
		// E and F name no port of DFFX1: E sorts first.
		{map[string]string{"D": "a", "CK": "ck", "Q": "q", "QN": "qn", "F": "b", "E": "a"}, `has no port "E"`},
	} {
		d := design(tc.conns)
		msgs := map[string]bool{}
		for range 50 {
			if err := d.Validate(); err != nil {
				msgs[err.Error()] = true
			}
		}
		if len(msgs) != 1 {
			t.Fatalf("50 validations reported %d distinct messages, want 1: %v", len(msgs), msgs)
		}
		for msg := range msgs {
			if !strings.Contains(msg, tc.want) {
				t.Errorf("validation reported %q, want %s", msg, tc.want)
			}
		}
	}
}

func TestValidateUndeclaredNet(t *testing.T) {
	d := NewDesign("x")
	m := NewModule("top")
	m.AddPort("a", Input)
	m.AddPort("y", Output)
	m.AddInstance("u1", "INVX1", map[string]string{"A": "ghost", "Y": "y"})
	d.AddModule(m)
	d.Top = "top"
	if err := d.Validate(); err == nil || !strings.Contains(err.Error(), "not declared") {
		t.Fatalf("undeclared net not reported: %v", err)
	}
}

func TestValidateHierarchyCycle(t *testing.T) {
	d := NewDesign("x")
	a := NewModule("a")
	a.AddPort("p", Input)
	a.AddInstance("u", "b", map[string]string{"p": "p"})
	b := NewModule("b")
	b.AddPort("p", Input)
	b.AddInstance("u", "a", map[string]string{"p": "p"})
	d.AddModule(a)
	d.AddModule(b)
	d.Top = "a"
	if err := d.Validate(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("hierarchy cycle not reported: %v", err)
	}
}

func TestValidateDuplicateInstance(t *testing.T) {
	d := NewDesign("x")
	m := NewModule("top")
	m.AddPort("a", Input)
	m.AddPort("y", Output)
	m.AddWire("w")
	m.AddInstance("u1", "INVX1", map[string]string{"A": "a", "Y": "w"})
	m.AddInstance("u1", "INVX1", map[string]string{"A": "w", "Y": "y"})
	d.AddModule(m)
	d.Top = "top"
	if err := d.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate instance") {
		t.Fatalf("duplicate instance not reported: %v", err)
	}
}

func TestFlattenCounts(t *testing.T) {
	f, err := Flatten(buildHierDesign())
	if err != nil {
		t.Fatal(err)
	}
	// Cells: TIELO + 2 FAX1 + 2 DFFX1 = 5.
	if len(f.Cells) != 5 {
		t.Fatalf("flattened to %d cells, want 5", len(f.Cells))
	}
	if len(f.PIs) != 5 {
		t.Errorf("%d PIs, want 5", len(f.PIs))
	}
	if len(f.POs) != 2 {
		t.Errorf("%d POs, want 2", len(f.POs))
	}
	if len(f.SequentialCells()) != 2 {
		t.Errorf("%d sequential cells, want 2", len(f.SequentialCells()))
	}
	if len(f.CombinationalCells()) != 3 {
		t.Errorf("%d comb cells, want 3", len(f.CombinationalCells()))
	}
}

func TestFlattenPaths(t *testing.T) {
	f, err := Flatten(buildHierDesign())
	if err != nil {
		t.Fatal(err)
	}
	c, err := f.CellByPath("u_bit0.u_fa")
	if err != nil {
		t.Fatal(err)
	}
	if c.Def.Name != "FAX1" {
		t.Errorf("cell at u_bit0.u_fa is %s", c.Def.Name)
	}
	if c.Depth() != 2 {
		t.Errorf("depth = %d, want 2 (top + adder_bit)", c.Depth())
	}
	if len(c.ModTypes) != 2 || c.ModTypes[0] != "top" || c.ModTypes[1] != "adder_bit" {
		t.Errorf("ModTypes = %v", c.ModTypes)
	}
	if c.FunctionalBlock() != "u_bit0" {
		t.Errorf("FunctionalBlock = %q", c.FunctionalBlock())
	}
}

func TestFlattenAliases(t *testing.T) {
	f, err := Flatten(buildHierDesign())
	if err != nil {
		t.Fatal(err)
	}
	// The net s0 is connected to port S of u_bit0; both names must resolve
	// to the same flat net.
	n1, err := f.NetByName("s0")
	if err != nil {
		t.Fatal(err)
	}
	n2, err := f.NetByName("u_bit0.S")
	if err != nil {
		t.Fatal(err)
	}
	if n1.ID != n2.ID {
		t.Errorf("alias resolution broken: %d vs %d", n1.ID, n2.ID)
	}
}

func TestFlattenDriversAndFanout(t *testing.T) {
	f, err := Flatten(buildHierDesign())
	if err != nil {
		t.Fatal(err)
	}
	s0, _ := f.NetByName("s0")
	if s0.Driver < 0 {
		t.Fatal("s0 must be driven")
	}
	if f.Cells[s0.Driver].Def.Name != "FAX1" {
		t.Errorf("s0 driven by %s", f.Cells[s0.Driver].Def.Name)
	}
	if len(s0.Fanout) != 1 {
		t.Errorf("s0 fanout = %d, want 1 (the DFF D pin)", len(s0.Fanout))
	}
	clk, _ := f.NetByName("clk")
	if !clk.IsPI {
		t.Error("clk must be a primary input")
	}
	if len(clk.Fanout) != 2 {
		t.Errorf("clk fanout = %d, want 2", len(clk.Fanout))
	}
	sum0, _ := f.NetByName("sum0")
	if !sum0.IsPO || sum0.POName != "sum0" {
		t.Error("sum0 must be a primary output")
	}
}

func TestLevelization(t *testing.T) {
	f, err := Flatten(buildHierDesign())
	if err != nil {
		t.Fatal(err)
	}
	b0, _ := f.CellByPath("u_bit0.u_fa")
	b1, _ := f.CellByPath("u_bit1.u_fa")
	if b0.Level >= b1.Level {
		t.Errorf("carry chain must raise level: bit0=%d bit1=%d", b0.Level, b1.Level)
	}
	ff, _ := f.CellByPath("u_ff0")
	if ff.Level != 0 {
		t.Errorf("sequential cell level = %d, want 0", ff.Level)
	}
	if f.MaxLevel < 2 {
		t.Errorf("MaxLevel = %d, want >= 2", f.MaxLevel)
	}
}

func TestCombLoopDetected(t *testing.T) {
	d := NewDesign("loop")
	m := NewModule("top")
	m.AddPort("y", Output)
	m.AddWire("w")
	m.AddInstance("u1", "INVX1", map[string]string{"A": "w", "Y": "y"})
	m.AddInstance("u2", "INVX1", map[string]string{"A": "y", "Y": "w"})
	d.AddModule(m)
	d.Top = "top"
	if _, err := Flatten(d); err == nil || !strings.Contains(err.Error(), "loop") {
		t.Fatalf("combinational loop not detected: %v", err)
	}
}

func TestVerilogRoundTrip(t *testing.T) {
	d := buildHierDesign()
	var buf bytes.Buffer
	if err := WriteVerilog(&buf, d); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, "module top") || !strings.Contains(text, "module adder_bit") {
		t.Fatalf("missing modules in output:\n%s", text)
	}
	d2, err := ParseVerilog(&buf)
	if err != nil {
		t.Fatalf("parse back failed: %v\n%s", err, text)
	}
	if d2.Top != "top" {
		t.Errorf("inferred top = %q", d2.Top)
	}
	f1, err := Flatten(d)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := Flatten(d2)
	if err != nil {
		t.Fatal(err)
	}
	if len(f1.Cells) != len(f2.Cells) || len(f1.Nets) != len(f2.Nets) {
		t.Errorf("round trip changed size: cells %d->%d nets %d->%d",
			len(f1.Cells), len(f2.Cells), len(f1.Nets), len(f2.Nets))
	}
	s1, s2 := ComputeStats(f1), ComputeStats(f2)
	if s1.Sequential != s2.Sequential || s1.Comb != s2.Comb {
		t.Errorf("round trip changed composition: %+v vs %+v", s1, s2)
	}
}

func TestVerilogEscapedIdentifiers(t *testing.T) {
	d := NewDesign("bus")
	m := NewModule("top")
	m.AddBusPort("din", 2, Input)
	m.AddBusPort("dout", 2, Output)
	m.AddInstance("u0", "INVX1", map[string]string{"A": "din[0]", "Y": "dout[0]"})
	m.AddInstance("u1", "INVX1", map[string]string{"A": "din[1]", "Y": "dout[1]"})
	d.AddModule(m)
	d.Top = "top"
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteVerilog(&buf, d); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `\din[0]`) {
		t.Fatalf("expected escaped identifier in:\n%s", buf.String())
	}
	d2, err := ParseVerilog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d2.Modules["top"].PortByName("din[0]"); !ok {
		t.Error("escaped port name lost in round trip")
	}
}

func TestParseVerilogComments(t *testing.T) {
	src := `
// line comment
/* block
   comment */
module top (a, y);
  input a;
  output y;
  INVX1 u1 (.A(a), .Y(y)); // trailing
endmodule
`
	d, err := ParseVerilog(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Flatten(d); err != nil {
		t.Fatal(err)
	}
}

func TestParseVerilogErrors(t *testing.T) {
	cases := []string{
		"",                                 // no modules
		"module top (a; endmodule",         // malformed port list
		"module top (a); input a; INVX1 u", // truncated instance
		"module top (a); endmodule",        // port without direction
	}
	for _, src := range cases {
		if _, err := ParseVerilog(strings.NewReader(src)); err == nil {
			t.Errorf("malformed source accepted: %q", src)
		}
	}
}

func TestStats(t *testing.T) {
	f, err := Flatten(buildHierDesign())
	if err != nil {
		t.Fatal(err)
	}
	s := ComputeStats(f)
	if s.Cells != 5 || s.Sequential != 2 || s.Comb != 3 || s.MemoryBits != 0 {
		t.Errorf("stats wrong: %+v", s)
	}
	if s.AreaUM2 <= 0 {
		t.Error("area must be positive")
	}
	if s.ByCellName["FAX1"] != 2 {
		t.Errorf("FAX1 count = %d", s.ByCellName["FAX1"])
	}
	if !strings.Contains(s.String(), "cells=5") {
		t.Errorf("report: %s", s.String())
	}
}

func TestFlattenRejectsDrivenPI(t *testing.T) {
	d := NewDesign("x")
	m := NewModule("top")
	m.AddPort("a", Input)
	m.AddPort("y", Output)
	// Attempt to drive the primary input 'a' from an inverter.
	m.AddInstance("u1", "INVX1", map[string]string{"A": "y", "Y": "a"})
	m.AddInstance("u2", "INVX1", map[string]string{"A": "a", "Y": "y"})
	d.AddModule(m)
	d.Top = "top"
	if _, err := Flatten(d); err == nil {
		t.Fatal("driving a primary input must fail")
	}
}
