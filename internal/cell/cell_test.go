package cell

import (
	"strings"
	"testing"

	"repro/internal/logic"
)

func eval(t *testing.T, name string, bits string) []logic.V {
	t.Helper()
	d := MustLookup(name)
	in := make([]logic.V, len(bits))
	for i := range bits {
		in[i] = logic.FromRune(bits[i])
	}
	if len(in) != len(d.Inputs) {
		t.Fatalf("%s: %d inputs supplied, cell has %d", name, len(in), len(d.Inputs))
	}
	return d.Eval(in)
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("NOSUCHCELL"); err == nil {
		t.Fatal("Lookup of unknown cell must fail")
	}
}

func TestNamesSortedAndComplete(t *testing.T) {
	names := Names()
	if len(names) < 25 {
		t.Fatalf("library has only %d cells", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names not sorted: %q >= %q", names[i-1], names[i])
		}
	}
	for _, want := range []string{"INVX1", "NAND2X1", "DFFX1", "SRAMBITX1", "DRAMBITX1", "RHSRAMBITX1", "DFFDEGLX2"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("library missing %s", want)
		}
	}
}

func TestInverter(t *testing.T) {
	if got := eval(t, "INVX1", "0")[0]; got != logic.L1 {
		t.Errorf("INV(0) = %v", got)
	}
	if got := eval(t, "INVX1", "1")[0]; got != logic.L0 {
		t.Errorf("INV(1) = %v", got)
	}
	if got := eval(t, "INVX1", "x")[0]; got != logic.X {
		t.Errorf("INV(x) = %v", got)
	}
}

func TestBufferZBecomesX(t *testing.T) {
	if got := eval(t, "BUFX2", "z")[0]; got != logic.X {
		t.Errorf("BUF(z) = %v, want x", got)
	}
	if got := eval(t, "BUFX2", "1")[0]; got != logic.L1 {
		t.Errorf("BUF(1) = %v", got)
	}
}

func TestNandNorWide(t *testing.T) {
	if got := eval(t, "NAND4X1", "1111")[0]; got != logic.L0 {
		t.Errorf("NAND4(all 1) = %v", got)
	}
	if got := eval(t, "NAND4X1", "1101")[0]; got != logic.L1 {
		t.Errorf("NAND4(with 0) = %v", got)
	}
	if got := eval(t, "NOR3X1", "000")[0]; got != logic.L1 {
		t.Errorf("NOR3(all 0) = %v", got)
	}
	if got := eval(t, "NOR3X1", "010")[0]; got != logic.L0 {
		t.Errorf("NOR3(with 1) = %v", got)
	}
}

func TestAoiOai(t *testing.T) {
	// AOI21: Y = !((A&B) | C)
	if got := eval(t, "AOI21X1", "110")[0]; got != logic.L0 {
		t.Errorf("AOI21(1,1,0) = %v, want 0", got)
	}
	if got := eval(t, "AOI21X1", "000")[0]; got != logic.L1 {
		t.Errorf("AOI21(0,0,0) = %v, want 1", got)
	}
	// OAI22: Y = !((A|B) & (C|D))
	if got := eval(t, "OAI22X1", "1010")[0]; got != logic.L0 {
		t.Errorf("OAI22(1,0,1,0) = %v, want 0", got)
	}
	if got := eval(t, "OAI22X1", "0011")[0]; got != logic.L1 {
		t.Errorf("OAI22(0,0,1,1) = %v, want 1", got)
	}
}

func TestFullAdderExhaustive(t *testing.T) {
	d := MustLookup("FAX1")
	for a := 0; a < 2; a++ {
		for b := 0; b < 2; b++ {
			for ci := 0; ci < 2; ci++ {
				out := d.Eval([]logic.V{logic.FromBool(a == 1), logic.FromBool(b == 1), logic.FromBool(ci == 1)})
				sum := a + b + ci
				if out[0].Bool() != (sum%2 == 1) {
					t.Errorf("FA S(%d,%d,%d) = %v", a, b, ci, out[0])
				}
				if out[1].Bool() != (sum >= 2) {
					t.Errorf("FA CO(%d,%d,%d) = %v", a, b, ci, out[1])
				}
			}
		}
	}
}

func TestHalfAdder(t *testing.T) {
	out := eval(t, "HAX1", "11")
	if out[0] != logic.L0 || out[1] != logic.L1 {
		t.Errorf("HA(1,1) = S:%v CO:%v", out[0], out[1])
	}
}

func TestTieCells(t *testing.T) {
	if got := MustLookup("TIELO").Eval(nil)[0]; got != logic.L0 {
		t.Errorf("TIELO = %v", got)
	}
	if got := MustLookup("TIEHI").Eval(nil)[0]; got != logic.L1 {
		t.Errorf("TIEHI = %v", got)
	}
}

func TestMux2(t *testing.T) {
	if got := eval(t, "MUX2X1", "100")[0]; got != logic.L1 {
		t.Errorf("MUX2(A=1,B=0,S=0) = %v, want A", got)
	}
	if got := eval(t, "MUX2X1", "101")[0]; got != logic.L0 {
		t.Errorf("MUX2(A=1,B=0,S=1) = %v, want B", got)
	}
}

func TestDFFNextState(t *testing.T) {
	d := MustLookup("DFFX1")
	// Inputs: D, CK
	if got := d.NextState(logic.L0, []logic.V{logic.L1, logic.L1}); got != logic.L1 {
		t.Errorf("DFF capture = %v, want 1", got)
	}
	outs := d.StateOutputs(logic.L1)
	if outs[0] != logic.L1 || outs[1] != logic.L0 {
		t.Errorf("DFF outputs = %v", outs)
	}
}

func TestDFFRAsyncReset(t *testing.T) {
	d := MustLookup("DFFRX1")
	// Inputs: D, CK, RN. RN=0 forces 0 regardless of D.
	if got := d.NextState(logic.L1, []logic.V{logic.L1, logic.L1, logic.L0}); got != logic.L0 {
		t.Errorf("DFFR with RN=0 next = %v, want 0", got)
	}
	v, active := d.AsyncState([]logic.V{logic.X, logic.X, logic.L0})
	if !active || v != logic.L0 {
		t.Errorf("AsyncState(RN=0) = %v,%v", v, active)
	}
	if _, active := d.AsyncState([]logic.V{logic.X, logic.X, logic.L1}); active {
		t.Error("AsyncState must be inactive with RN=1")
	}
}

func TestDFFSAsyncSet(t *testing.T) {
	d := MustLookup("DFFSX1")
	if got := d.NextState(logic.L0, []logic.V{logic.L0, logic.L1, logic.L0}); got != logic.L1 {
		t.Errorf("DFFS with SN=0 next = %v, want 1", got)
	}
}

func TestEnableFlop(t *testing.T) {
	d := MustLookup("DFFEX1")
	// Inputs: D, CK, E
	if got := d.NextState(logic.L0, []logic.V{logic.L1, logic.L1, logic.L0}); got != logic.L0 {
		t.Errorf("disabled flop captured: %v", got)
	}
	if got := d.NextState(logic.L0, []logic.V{logic.L1, logic.L1, logic.L1}); got != logic.L1 {
		t.Errorf("enabled flop did not capture: %v", got)
	}
	if got := d.NextState(logic.L0, []logic.V{logic.L1, logic.L1, logic.X}); got != logic.X {
		t.Errorf("X enable must poison state: %v", got)
	}
}

func TestMemoryBitCells(t *testing.T) {
	for _, name := range []string{"SRAMBITX1", "DRAMBITX1", "RHSRAMBITX1"} {
		d := MustLookup(name)
		if d.Class != Memory {
			t.Errorf("%s class = %v, want mem", name, d.Class)
		}
		// Inputs: D, WE, CK
		if got := d.NextState(logic.L0, []logic.V{logic.L1, logic.L1, logic.L1}); got != logic.L1 {
			t.Errorf("%s write failed: %v", name, got)
		}
		if got := d.NextState(logic.L1, []logic.V{logic.L0, logic.L0, logic.L1}); got != logic.L1 {
			t.Errorf("%s hold failed: %v", name, got)
		}
		outs := d.StateOutputs(logic.L1)
		if len(outs) != 1 || outs[0] != logic.L1 {
			t.Errorf("%s outputs = %v", name, outs)
		}
	}
}

func TestRadClasses(t *testing.T) {
	cases := map[string]RadClass{
		"INVX1": RadComb, "DFFX1": RadFF, "SRAMBITX1": RadSRAM,
		"DRAMBITX1": RadDRAM, "RHSRAMBITX1": RadRHSRAM,
	}
	for name, want := range cases {
		if got := MustLookup(name).Rad; got != want {
			t.Errorf("%s rad class = %s, want %s", name, got, want)
		}
	}
}

func TestPortDir(t *testing.T) {
	d := MustLookup("DFFX1")
	if dir, err := d.PortDir("D"); err != nil || dir != "input" {
		t.Errorf("PortDir(D) = %q, %v", dir, err)
	}
	if dir, err := d.PortDir("QN"); err != nil || dir != "output" {
		t.Errorf("PortDir(QN) = %q, %v", dir, err)
	}
	if _, err := d.PortDir("NOPE"); err == nil {
		t.Error("PortDir of unknown port must fail")
	}
}

func TestEveryCellConsistent(t *testing.T) {
	for _, name := range Names() {
		d := MustLookup(name)
		if d.IsSequential() {
			if d.LUT != nil {
				t.Errorf("%s: sequential cell must not define a LUT", name)
			}
			if d.InputIndex(d.Seq.Clock) < 0 {
				t.Errorf("%s: clock %q not an input", name, d.Seq.Clock)
			}
			if d.InputIndex(d.Seq.DataPort) < 0 {
				t.Errorf("%s: data %q not an input", name, d.Seq.DataPort)
			}
			if d.OutputIndex("Q") < 0 {
				t.Errorf("%s: sequential cell missing Q", name)
			}
			if d.Seq.HasQN && d.OutputIndex("QN") < 0 {
				t.Errorf("%s: HasQN but no QN output", name)
			}
		} else {
			if d.LUT == nil {
				t.Errorf("%s: combinational cell missing its LUT", name)
			} else {
				in := make([]logic.V, len(d.Inputs))
				for i := range in {
					in[i] = logic.L0
				}
				out := d.Eval(in)
				if len(out) != len(d.Outputs) {
					t.Errorf("%s: Eval produced %d outputs, cell declares %d", name, len(out), len(d.Outputs))
				}
			}
		}
		if d.DelayPS < 0 {
			t.Errorf("%s: negative delay", name)
		}
		if d.AreaUM2 <= 0 {
			t.Errorf("%s: non-positive area", name)
		}
		if !strings.ContainsAny(name, "ABCDEFGHIJKLMNOPQRSTUVWXYZ") {
			t.Errorf("%s: cell names are upper case by convention", name)
		}
	}
}

func TestCombXPropagationSafety(t *testing.T) {
	// Every combinational gate fed all-X must produce only 0/1/X, never Z,
	// and must not panic: gates do not generate high impedance.
	for _, name := range Names() {
		d := MustLookup(name)
		if d.IsSequential() {
			continue
		}
		in := make([]logic.V, len(d.Inputs))
		for i := range in {
			in[i] = logic.X
		}
		for _, o := range d.Eval(in) {
			if o == logic.Z {
				t.Errorf("%s produced Z from X inputs", name)
			}
		}
	}
}

// TestLUTMatchesFormula checks every combinational cell's table against
// the formula it was generated from over all 4^k vectors of {0, 1, X, Z}:
// each entry read raw, decoded output by output, and through Eval.
func TestLUTMatchesFormula(t *testing.T) {
	checked := 0
	for _, name := range Names() {
		d := MustLookup(name)
		if d.IsSequential() {
			continue
		}
		f := formulas[name]
		if f == nil {
			t.Fatalf("%s: no formula recorded", name)
		}
		k := len(d.Inputs)
		if len(d.LUT) != 1<<(2*k) {
			t.Fatalf("%s: LUT has %d entries, want 4^%d", name, len(d.LUT), k)
		}
		in := make([]logic.V, k)
		for vec := 0; vec < 1<<(2*k); vec++ {
			rest := vec
			for i := range in {
				in[i] = []logic.V{logic.L0, logic.L1, logic.X, logic.Z}[rest%4]
				rest /= 4
			}
			want := f(in)
			if len(want) != len(d.Outputs) {
				t.Fatalf("%s: formula gives %d outputs, cell declares %d", name, len(want), len(d.Outputs))
			}
			entry, got := d.LUT[pack(in)], d.Eval(in)
			for j, w := range want {
				if raw := logic.V(entry >> (2 * j) & 3); raw != w || got[j] != w {
					t.Errorf("%s%v output %s: LUT %v, Eval %v, formula %v", name, in, d.Outputs[j], raw, got[j], w)
				}
			}
			if entry>>(2*len(want)) != 0 {
				t.Errorf("%s%v: LUT entry %#x has bits above its outputs", name, in, entry)
			}
		}
		checked++
	}
	if checked != len(formulas) {
		t.Errorf("checked %d combinational cells, %d formulas recorded", checked, len(formulas))
	}
}
