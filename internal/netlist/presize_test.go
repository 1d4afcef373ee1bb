package netlist_test

import (
	"testing"

	"repro/internal/netlist"
	"repro/internal/socgen"
)

// TestFlattenPresizeExact holds Flatten's pre-count to the tables it
// sizes on every Table I design: an undercount would overrun the net and
// cell slabs and grow the maps, an overcount would waste them, so the
// count must be exact, not a guess.
func TestFlattenPresizeExact(t *testing.T) {
	for _, cfg := range socgen.TableIConfigs() {
		d, err := socgen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nets, cells, netNames := netlist.Presize(d)
		f, err := netlist.Flatten(d)
		if err != nil {
			t.Fatal(err)
		}
		if nets != len(f.Nets) || cells != len(f.Cells) || netNames != len(f.NetIndex) || cells != len(f.CellIndex) {
			t.Errorf("%s: pre-count nets %d, cells %d, names %d; flattened %d nets, %d cells (%d paths), %d names",
				cfg.Name, nets, cells, netNames, len(f.Nets), len(f.Cells), len(f.CellIndex), len(f.NetIndex))
		}
	}
}
