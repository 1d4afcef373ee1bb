// Package fault implements the paper's single-particle fault machinery: the
// SEU and SET equivalent fault models of Fig. 2 and the per-cell soft-error
// database of Fig. 3, which maps linear energy transfer (LET) values to
// state-conditioned upset cross-sections. The database feeds the injection
// campaign: for a given heavy-ion flux and exposure time it yields the
// expected number of upsets per cell and the SET pulse width.
package fault

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cell"
)

// Kind is the single-event fault type.
type Kind uint8

// Fault kinds.
const (
	SEU Kind = iota // single-event upset: storage bit flip
	SET             // single-event transient: pulse on a combinational output
)

// String names the kind as the paper does.
func (k Kind) String() string {
	if k == SEU {
		return "SEU"
	}
	return "SET"
}

// KindFromString parses a kind name; unknown strings map to SEU.
func KindFromString(s string) Kind {
	if s == "SET" {
		return SET
	}
	return SEU
}

// SubXsect is one conditioned sub-cross-section of a database entry, e.g.
// "SEU 1->0" applying only when (q==1) & (qn==0).
type SubXsect struct {
	Name  string
	Cond  string  // boolean condition over node values; empty means always
	Xsect float64 // cm²
}

// LETEntry groups the sub-cross-sections measured at one LET value
// (MeV·cm²/mg).
type LETEntry struct {
	LET float64
	Sub []SubXsect
}

// Total returns the sum of sub-cross-sections, the cell's full sensitivity
// at this LET.
func (e LETEntry) Total() float64 {
	var t float64
	for _, s := range e.Sub {
		t += s.Xsect
	}
	return t
}

// CellEntry is the database record for one library cell, mirroring the
// fields of the paper's Fig. 3 example.
type CellEntry struct {
	CellName        string
	Ports           []string
	InputDataPorts  []string
	OutputDataPorts []string
	Model           string            // "SEU-DFF", "SEU-MEM" or "SET-COMB"
	Nodes           map[string]string // logical node -> behavioural instance node
	SoftErrors      []LETEntry        // ascending LET
	PulseBasePS     float64           // SET only: base pulse width at LET 1
}

// Kind infers the fault kind this entry models.
func (c *CellEntry) Kind() Kind {
	if c.Model == "SET-COMB" {
		return SET
	}
	return SEU
}

// XsectAt returns the total cross-section at the given LET, interpolating
// log-linearly between tabulated points and clamping outside the table.
func (c *CellEntry) XsectAt(let float64) float64 {
	n := len(c.SoftErrors)
	if n == 0 {
		return 0
	}
	if let <= c.SoftErrors[0].LET {
		return c.SoftErrors[0].Total()
	}
	if let >= c.SoftErrors[n-1].LET {
		return c.SoftErrors[n-1].Total()
	}
	i := sort.Search(n, func(i int) bool { return c.SoftErrors[i].LET >= let }) - 1
	lo, hi := c.SoftErrors[i], c.SoftErrors[i+1]
	frac := (let - lo.LET) / (hi.LET - lo.LET)
	tl, th := lo.Total(), hi.Total()
	if tl <= 0 || th <= 0 {
		return tl + frac*(th-tl)
	}
	return math.Exp(math.Log(tl) + frac*(math.Log(th)-math.Log(tl)))
}

// PulseWidthPS returns the SET pulse width in picoseconds for the given
// LET: wider pulses at higher deposited charge, following the logarithmic
// growth reported in transient-characterization literature.
func (c *CellEntry) PulseWidthPS(let float64) uint64 {
	if c.Kind() != SET {
		return 0
	}
	base := c.PulseBasePS
	if base <= 0 {
		base = 40
	}
	w := base * (1 + math.Log1p(let)/math.Ln2/4)
	if w < 1 {
		w = 1
	}
	return uint64(w)
}

// DB is the soft-error database: one entry per library cell.
type DB struct {
	Entries map[string]*CellEntry
}

// Entry returns the record for a cell name.
func (db *DB) Entry(cellName string) (*CellEntry, error) {
	e, ok := db.Entries[cellName]
	if !ok {
		return nil, fmt.Errorf("fault: no database entry for cell %q", cellName)
	}
	return e, nil
}

// CellNames returns the entries' cell names in sorted order.
func (db *DB) CellNames() []string {
	names := make([]string, 0, len(db.Entries))
	for n := range db.Entries {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// StandardLETs are the LET values the paper selects "to encompass different
// radiation environments".
var StandardLETs = []float64{1.0, 37.0, 100.0}

// weibull is the classic 4-parameter Weibull cross-section curve used to
// fit heavy-ion test data: sigma(LET) = sat * (1 - exp(-((LET-L0)/W)^S)).
func weibull(let, sat, l0, w, s float64) float64 {
	if let <= l0 {
		return 0
	}
	return sat * (1 - math.Exp(-math.Pow((let-l0)/w, s)))
}

// radParams are the per-radiation-class Weibull parameters of the default
// database. Saturation cross-sections keep the Table I ordering: SRAM most
// sensitive, then DRAM, flip-flops, combinational logic; rad-hard SRAM is
// both far less sensitive and has a high LET threshold.
var radParams = map[cell.RadClass]struct{ sat, l0, w, s float64 }{
	cell.RadSRAM:   {sat: 4.0e-8, l0: 0.4, w: 18, s: 1.6},
	cell.RadDRAM:   {sat: 2.2e-8, l0: 0.9, w: 26, s: 1.5},
	cell.RadFF:     {sat: 3.0e-8, l0: 0.6, w: 20, s: 1.7},
	cell.RadComb:   {sat: 1.4e-8, l0: 1.2, w: 30, s: 1.4},
	cell.RadRHSRAM: {sat: 2.5e-9, l0: 14.0, w: 40, s: 2.0},
}

// DefaultDB synthesizes the database for every library cell at the standard
// LET points. Storage cells get the two conditioned sub-cross-sections of
// Fig. 3 (SEU 1->0 and SEU 0->1, the former slightly smaller as in the
// paper's example); combinational cells get a single SET entry.
func DefaultDB() *DB {
	db := &DB{Entries: map[string]*CellEntry{}}
	for _, name := range cell.Names() {
		def := cell.MustLookup(name)
		p, ok := radParams[def.Rad]
		if !ok {
			continue
		}
		e := &CellEntry{
			CellName:        name,
			Ports:           append(append([]string{}, def.Inputs...), def.Outputs...),
			InputDataPorts:  append([]string{}, def.Inputs...),
			OutputDataPorts: append([]string{}, def.Outputs...),
			Nodes:           map[string]string{},
		}
		for _, port := range e.Ports {
			e.Nodes[port] = fmt.Sprintf("%s_behav_inst.%s", name, port)
		}
		// Area scaling: larger cells present a larger sensitive area.
		scale := def.AreaUM2 / 2.0
		if scale < 0.2 {
			scale = 0.2
		}
		switch def.Class {
		case cell.Sequential:
			e.Model = "SEU-DFF"
		case cell.Memory:
			e.Model = "SEU-MEM"
		default:
			e.Model = "SET-COMB"
			e.PulseBasePS = 30 + 4*def.AreaUM2
		}
		for _, let := range StandardLETs {
			total := weibull(let, p.sat, p.l0, p.w, p.s) * scale
			var subs []SubXsect
			if def.IsSequential() {
				cond10, cond01 := "(q==1)", "(q==0)"
				if def.Seq.HasQN {
					cond10, cond01 = "(q==1) & (qn==0)", "(q==0) & (qn==1)"
				}
				subs = []SubXsect{
					{Name: "SEU 1->0", Cond: cond10, Xsect: total * 0.43},
					{Name: "SEU 0->1", Cond: cond01, Xsect: total * 0.57},
				}
			} else {
				subs = []SubXsect{{Name: "SET pulse", Xsect: total}}
			}
			e.SoftErrors = append(e.SoftErrors, LETEntry{LET: let, Sub: subs})
		}
		db.Entries[name] = e
	}
	return db
}
