package netlist

import (
	"cmp"
	"slices"

	"repro/internal/cell"
	"repro/internal/logic"
)

// Program is a Flat compiled for simulation: every per-cell and per-net
// fact the engines read on their hot paths, as flat int32 arrays. It is
// built once per design (Flat.Program), never modified, and shared
// read-only by every engine and worker simulating the design.
type Program struct {
	// Op is each cell's opcode: its library cell's index in Defs.
	Op   []int32
	Defs []*cell.Def
	// Cell c reads In[InOff[c]:InOff[c+1]] and drives
	// Out[OutOff[c]:OutOff[c+1]], aligned with its Def's ports.
	InOff, In, OutOff, Out []int32
	// Net n fans out to input pin FanPin[i] of cell FanCell[i] for i in
	// FanOff[n]:FanOff[n+1].
	FanOff, FanCell, FanPin []int32
	// CombOrder lists the combinational cells by ascending level, then ID;
	// SeqCells lists the storage cells by ID.
	CombOrder, SeqCells []int32
}

// Program returns f compiled for simulation, building it on first use.
func (f *Flat) Program() *Program {
	f.progOnce.Do(func() { f.prog = compile(f) })
	return f.prog
}

func compile(f *Flat) *Program {
	p := &Program{
		Op:     make([]int32, len(f.Cells)),
		InOff:  make([]int32, 1, len(f.Cells)+1),
		OutOff: make([]int32, 1, len(f.Cells)+1),
		FanOff: make([]int32, 1, len(f.Nets)+1),
	}
	ops := map[*cell.Def]int32{}
	for _, c := range f.Cells {
		op, ok := ops[c.Def]
		if !ok {
			op = int32(len(p.Defs))
			ops[c.Def] = op
			p.Defs = append(p.Defs, c.Def)
		}
		p.Op[c.ID] = op
		for _, n := range c.In {
			p.In = append(p.In, int32(n))
		}
		for _, n := range c.Out {
			p.Out = append(p.Out, int32(n))
		}
		p.InOff = append(p.InOff, int32(len(p.In)))
		p.OutOff = append(p.OutOff, int32(len(p.Out)))
		if c.Def.IsSequential() {
			p.SeqCells = append(p.SeqCells, int32(c.ID))
		} else {
			p.CombOrder = append(p.CombOrder, int32(c.ID))
		}
	}
	slices.SortStableFunc(p.CombOrder, func(a, b int32) int {
		return cmp.Compare(f.Cells[a].Level, f.Cells[b].Level)
	})
	for _, n := range f.Nets {
		for _, fo := range n.Fanout {
			p.FanCell = append(p.FanCell, int32(fo.Cell))
			p.FanPin = append(p.FanPin, int32(fo.Pin))
		}
		p.FanOff = append(p.FanOff, int32(len(p.FanCell)))
	}
	return p
}

// Def returns cell c's library cell.
func (p *Program) Def(c int32) *cell.Def { return p.Defs[p.Op[c]] }

// Ins returns cell c's input nets.
func (p *Program) Ins(c int32) []int32 { return p.In[p.InOff[c]:p.InOff[c+1]] }

// Outs returns cell c's output nets.
func (p *Program) Outs(c int32) []int32 { return p.Out[p.OutOff[c]:p.OutOff[c+1]] }

// Eval returns combinational cell c's LUT entry for the net values vals:
// output j in bits 2j..2j+1.
func (p *Program) Eval(c int32, vals []logic.V) uint8 {
	idx := 0
	for i, n := range p.Ins(c) {
		idx |= int(vals[n]) << (2 * i)
	}
	return p.Def(c).LUT[idx]
}

// Inputs appends cell c's input values, read from vals, to buf.
func (p *Program) Inputs(c int32, vals, buf []logic.V) []logic.V {
	for _, n := range p.Ins(c) {
		buf = append(buf, vals[n])
	}
	return buf
}
