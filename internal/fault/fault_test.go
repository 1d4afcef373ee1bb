package fault

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/cell"
)

func TestDefaultDBCoversLibrary(t *testing.T) {
	db := DefaultDB()
	for _, name := range cell.Names() {
		e, err := db.Entry(name)
		if err != nil {
			t.Errorf("no entry for %s: %v", name, err)
			continue
		}
		if len(e.SoftErrors) != len(StandardLETs) {
			t.Errorf("%s: %d LET entries, want %d", name, len(e.SoftErrors), len(StandardLETs))
		}
		def := cell.MustLookup(name)
		if def.IsSequential() && e.Kind() != SEU {
			t.Errorf("%s: sequential cell must model SEU, got %s", name, e.Model)
		}
		if !def.IsSequential() && e.Kind() != SET {
			t.Errorf("%s: combinational cell must model SET, got %s", name, e.Model)
		}
	}
	if _, err := db.Entry("NOPE"); err == nil {
		t.Error("unknown cell must error")
	}
}

func TestXsectMonotoneInLET(t *testing.T) {
	db := DefaultDB()
	for _, name := range []string{"SRAMBITX1", "DRAMBITX1", "DFFX1", "INVX1"} {
		e, _ := db.Entry(name)
		prev := -1.0
		for _, let := range []float64{1, 5, 10, 37, 60, 100} {
			x := e.XsectAt(let)
			if x < prev {
				t.Errorf("%s: xsect not monotone at LET %g: %g < %g", name, let, x, prev)
			}
			prev = x
		}
	}
}

func TestXsectOrderingMatchesTableI(t *testing.T) {
	db := DefaultDB()
	sram, _ := db.Entry("SRAMBITX1")
	dram, _ := db.Entry("DRAMBITX1")
	rh, _ := db.Entry("RHSRAMBITX1")
	let := 37.0
	if !(sram.XsectAt(let) > dram.XsectAt(let)) {
		t.Errorf("SRAM must be more sensitive than DRAM: %g vs %g", sram.XsectAt(let), dram.XsectAt(let))
	}
	if !(dram.XsectAt(let) > rh.XsectAt(let)*2) {
		t.Errorf("rad-hard SRAM must be much less sensitive: dram=%g rh=%g", dram.XsectAt(let), rh.XsectAt(let))
	}
	if rh.XsectAt(1.0) != 0 {
		t.Errorf("rad-hard below threshold must have zero xsect, got %g", rh.XsectAt(1.0))
	}
}

func TestXsectInterpolationBounds(t *testing.T) {
	db := DefaultDB()
	e, _ := db.Entry("DFFX1")
	lo := e.SoftErrors[0].Total()
	hi := e.SoftErrors[len(e.SoftErrors)-1].Total()
	if got := e.XsectAt(0.1); got != lo {
		t.Errorf("below-table LET must clamp to first entry: %g vs %g", got, lo)
	}
	if got := e.XsectAt(500); got != hi {
		t.Errorf("above-table LET must clamp to last entry: %g vs %g", got, hi)
	}
	mid := e.XsectAt(60)
	if mid <= e.XsectAt(37) || mid >= hi {
		t.Errorf("interpolated xsect out of order: %g", mid)
	}
}

func TestPulseWidthGrowsWithLET(t *testing.T) {
	db := DefaultDB()
	e, _ := db.Entry("NAND2X1")
	w1, w2 := e.PulseWidthPS(1), e.PulseWidthPS(100)
	if w1 == 0 || w2 <= w1 {
		t.Errorf("pulse width must grow with LET: %d -> %d", w1, w2)
	}
	seq, _ := db.Entry("DFFX1")
	if seq.PulseWidthPS(37) != 0 {
		t.Error("SEU entries have no pulse width")
	}
}

func TestEvalCond(t *testing.T) {
	env := map[string]int{"q": 1, "qn": 0}
	cases := []struct {
		cond string
		want bool
	}{
		{"", true},
		{"(q==1)", true},
		{"(q==0)", false},
		{"(q==1) & (qn==0)", true},
		{"(q==1) & (qn==1)", false},
		{"(q==0) | (qn==0)", true},
		{"(missing==1)", false},
	}
	for _, c := range cases {
		got, err := EvalCond(c.cond, env)
		if err != nil {
			t.Errorf("EvalCond(%q) error: %v", c.cond, err)
			continue
		}
		if got != c.want {
			t.Errorf("EvalCond(%q) = %v, want %v", c.cond, got, c.want)
		}
	}
}

func TestEvalCondErrors(t *testing.T) {
	for _, cond := range []string{"q==1", "(q=1)", "(q==2)", "(q==1) &", "(q==1) ) extra", "(==1)"} {
		if _, err := EvalCond(cond, map[string]int{"q": 1}); err == nil {
			t.Errorf("malformed condition accepted: %q", cond)
		}
	}
}

func TestMatchSubSelectsByState(t *testing.T) {
	db := DefaultDB()
	e, _ := db.Entry("DFFDEGLX2")
	sub, ok, err := e.MatchSub(37.0, map[string]int{"q": 1, "qn": 0})
	if err != nil || !ok {
		t.Fatalf("MatchSub failed: %v %v", ok, err)
	}
	if sub.Name != "SEU 1->0" {
		t.Errorf("state q=1 must match 'SEU 1->0', got %q", sub.Name)
	}
	sub, ok, _ = e.MatchSub(37.0, map[string]int{"q": 0, "qn": 1})
	if !ok || sub.Name != "SEU 0->1" {
		t.Errorf("state q=0 must match 'SEU 0->1', got %q ok=%v", sub.Name, ok)
	}
	// Unknown state matches nothing.
	if _, ok, _ := e.MatchSub(37.0, map[string]int{}); ok {
		t.Error("X state must not match any sub-cross-section")
	}
	// Off-table LET falls back to nearest entry.
	if _, ok, _ := e.MatchSub(40.0, map[string]int{"q": 1, "qn": 0}); !ok {
		t.Error("nearest-LET fallback failed")
	}
}

func TestSEUSubSplit(t *testing.T) {
	db := DefaultDB()
	e, _ := db.Entry("DFFX1")
	for _, le := range e.SoftErrors {
		if len(le.Sub) != 2 {
			t.Fatalf("LET %g: %d subs, want 2", le.LET, len(le.Sub))
		}
		if le.Total() <= 0 && le.LET > 1 {
			t.Errorf("LET %g: zero total xsect", le.LET)
		}
		if math.Abs(le.Sub[0].Xsect+le.Sub[1].Xsect-le.Total()) > 1e-18 {
			t.Errorf("sub xsects do not sum to total")
		}
	}
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	db := DefaultDB()
	var buf bytes.Buffer
	if err := Marshal(&buf, db); err != nil {
		t.Fatal(err)
	}
	db2, err := Unmarshal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(db2.Entries) != len(db.Entries) {
		t.Fatalf("entries %d -> %d", len(db.Entries), len(db2.Entries))
	}
	for _, name := range db.CellNames() {
		a, b := db.Entries[name], db2.Entries[name]
		if b == nil {
			t.Fatalf("entry %s lost", name)
		}
		if a.Model != b.Model {
			t.Errorf("%s model %q -> %q", name, a.Model, b.Model)
		}
		if len(a.SoftErrors) != len(b.SoftErrors) {
			t.Fatalf("%s LET entries %d -> %d", name, len(a.SoftErrors), len(b.SoftErrors))
		}
		for i := range a.SoftErrors {
			if a.SoftErrors[i].LET != b.SoftErrors[i].LET {
				t.Errorf("%s LET %g -> %g", name, a.SoftErrors[i].LET, b.SoftErrors[i].LET)
			}
			if len(a.SoftErrors[i].Sub) != len(b.SoftErrors[i].Sub) {
				t.Fatalf("%s sub count differs", name)
			}
			for j := range a.SoftErrors[i].Sub {
				sa, sb := a.SoftErrors[i].Sub[j], b.SoftErrors[i].Sub[j]
				if sa.Name != sb.Name || sa.Cond != sb.Cond {
					t.Errorf("%s sub %d: %+v -> %+v", name, j, sa, sb)
				}
				if math.Abs(sa.Xsect-sb.Xsect) > sa.Xsect*1e-5 {
					t.Errorf("%s sub %d xsect %g -> %g", name, j, sa.Xsect, sb.Xsect)
				}
			}
		}
		if len(a.Nodes) != len(b.Nodes) {
			t.Errorf("%s nodes %d -> %d", name, len(a.Nodes), len(b.Nodes))
		}
		if a.PulseBasePS > 0 && math.Abs(a.PulseBasePS-b.PulseBasePS) > 1e-9 {
			t.Errorf("%s pulse base %g -> %g", name, a.PulseBasePS, b.PulseBasePS)
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	cases := []string{
		"",
		"Ports: [A]\n",
		"CellName: X\n  SoftErrors:\n    - LET: abc\n",
		"CellName: X\n  PulseBasePS: zz\n",
	}
	for _, src := range cases {
		if _, err := Unmarshal(bytes.NewBufferString(src)); err == nil {
			t.Errorf("malformed db accepted: %q", src)
		}
	}
}

func TestWeibullShape(t *testing.T) {
	if weibull(0.5, 1e-8, 1, 10, 1.5) != 0 {
		t.Error("below threshold must be zero")
	}
	at50 := weibull(50, 1e-8, 1, 10, 1.5)
	at100 := weibull(100, 1e-8, 1, 10, 1.5)
	if !(at100 > at50) {
		t.Error("weibull must increase")
	}
	if at100 > 1e-8 {
		t.Error("weibull must saturate below sat")
	}
}
