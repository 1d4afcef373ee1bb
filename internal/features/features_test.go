package features

import (
	"math"
	"testing"

	"repro/internal/netlist"
	"repro/internal/socgen"
)

func socFlat(t *testing.T) *netlist.Flat {
	t.Helper()
	cfg, err := socgen.ConfigByIndex(1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := socgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := netlist.Flatten(d)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNamesStable(t *testing.T) {
	n := Names()
	if len(n) != 10 {
		t.Fatalf("%d features, want 10", len(n))
	}
	want := []string{"top_mod_type", "reg_type", "delay_unit_count", "signal_type", "layer_depth", "signal_bit"}
	for i, w := range want {
		if n[i] != w {
			t.Errorf("feature %d = %q, want %q (paper order)", i, n[i], w)
		}
	}
	if PaperFeatureCount != 6 {
		t.Error("paper selects 6 features")
	}
}

func TestExtractShape(t *testing.T) {
	f := socFlat(t)
	m := Extract(f)
	if len(m.Rows) != len(f.Cells) {
		t.Fatalf("%d rows for %d cells", len(m.Rows), len(f.Cells))
	}
	for i, r := range m.Rows {
		if len(r) != 10 {
			t.Fatalf("row %d has %d features", i, len(r))
		}
		for j, v := range r {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("row %d col %d is %v", i, j, v)
			}
		}
	}
}

func TestFeatureSemantics(t *testing.T) {
	f := socFlat(t)
	m := Extract(f)
	// Find a memory bit cell and check its codes.
	for i, c := range f.Cells {
		if c.Def.Name == "SRAMBITX1" {
			if m.Rows[i][0] != 3 {
				t.Errorf("memory cell top_mod_type = %v, want 3", m.Rows[i][0])
			}
			if m.Rows[i][1] != 5 {
				t.Errorf("SRAM bit reg_type = %v, want 5", m.Rows[i][1])
			}
			if m.Rows[i][4] < 2 {
				t.Errorf("memory bit layer_depth = %v", m.Rows[i][4])
			}
			break
		}
	}
	// A clock buffer in the top module drives CK pins: signal_type 3.
	found := false
	for i, c := range f.Cells {
		if c.Def.Name == "BUFX2" && m.Rows[i][3] == 3 {
			found = true
			_ = i
			break
		}
	}
	if !found {
		t.Error("no clock-driving buffer detected via signal_type")
	}
}

func TestSignalBitParsing(t *testing.T) {
	f := socFlat(t)
	m := Extract(f)
	// Some cells drive bus bits like acc_out[5]; signal_bit must pick the
	// index up for at least a few nodes.
	nonzero := 0
	for _, r := range m.Rows {
		if r[5] > 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Error("signal_bit never nonzero despite bus signals")
	}
}

func TestSelect(t *testing.T) {
	f := socFlat(t)
	m := Extract(f)
	sel, err := m.Select([]int{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Names) != 2 || sel.Names[1] != "layer_depth" {
		t.Fatalf("selected names %v", sel.Names)
	}
	if len(sel.Rows) != len(m.Rows) || len(sel.Rows[0]) != 2 {
		t.Fatal("selected shape wrong")
	}
	if _, err := m.Select([]int{99}); err == nil {
		t.Error("out-of-range column must fail")
	}
}

func TestScalerNormalizes(t *testing.T) {
	m := &Matrix{
		Names: []string{"a", "b", "const"},
		Rows: [][]float64{
			{0, 10, 5},
			{5, 20, 5},
			{10, 30, 5},
		},
	}
	s := FitScaler(m)
	out := s.Transform(m)
	if out.Rows[0][0] != 0 || out.Rows[2][0] != 1 || out.Rows[1][0] != 0.5 {
		t.Errorf("column a: %v", [][]float64{out.Rows[0], out.Rows[1], out.Rows[2]})
	}
	if out.Rows[1][2] != 0 {
		t.Errorf("constant column must map to 0, got %v", out.Rows[1][2])
	}
	// Original must be untouched.
	if m.Rows[0][0] != 0 || m.Rows[1][1] != 20 {
		t.Error("Transform mutated its input")
	}
	// Out-of-range test data clamps.
	test := &Matrix{Names: m.Names, Rows: [][]float64{{-5, 100, 5}}}
	tt := s.Transform(test)
	if tt.Rows[0][0] != 0 || tt.Rows[0][1] != 1 {
		t.Errorf("clamping failed: %v", tt.Rows[0])
	}
}

func TestClean(t *testing.T) {
	m := &Matrix{
		Names: []string{"a"},
		Rows:  [][]float64{{1}, {math.NaN()}, {3}, {math.Inf(1)}},
	}
	labels := []bool{true, false, true, false}
	out, keptLabels, kept := Clean(m, labels)
	if len(out.Rows) != 2 || len(keptLabels) != 2 || len(kept) != 2 {
		t.Fatalf("cleaned to %d rows", len(out.Rows))
	}
	if kept[0] != 0 || kept[1] != 2 {
		t.Errorf("kept indices %v", kept)
	}
	if !keptLabels[0] || !keptLabels[1] {
		t.Errorf("labels misaligned after cleaning")
	}
}

func TestRankByCorrelation(t *testing.T) {
	// Feature 0 is perfectly predictive, feature 1 is noise-free constant,
	// feature 2 is anti-correlated (same |r|).
	m := &Matrix{
		Names: []string{"predictive", "constant", "anti"},
		Rows: [][]float64{
			{1, 5, 0}, {1, 5, 0}, {1, 5, 0},
			{0, 5, 1}, {0, 5, 1}, {0, 5, 1},
		},
	}
	labels := []bool{true, true, true, false, false, false}
	rank := RankByCorrelation(m, labels)
	if len(rank) != 3 {
		t.Fatalf("rank %v", rank)
	}
	if rank[2] != 1 {
		t.Errorf("constant feature must rank last: %v", rank)
	}
}

func TestCloneIndependent(t *testing.T) {
	m := &Matrix{Names: []string{"a"}, Rows: [][]float64{{1}}}
	c := m.Clone()
	c.Rows[0][0] = 99
	if m.Rows[0][0] != 1 {
		t.Error("clone aliases original")
	}
}
