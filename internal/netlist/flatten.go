package netlist

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/cell"
)

// CellPort addresses one input pin of a flattened cell.
type CellPort struct {
	Cell int // index into Flat.Cells
	Pin  int // index into the cell's Def.Inputs
}

// FlatNet is one scalar net of the flattened design.
type FlatNet struct {
	ID      int
	Name    string // hierarchical name, segments joined by '.'
	Driver  int    // driving cell index, or -1 (primary input / undriven)
	DrvPin  int    // output index on the driving cell
	Fanout  []CellPort
	IsPI    bool
	IsPO    bool
	POName  string // top-level port name when IsPO
	Aliases []string
}

// FlatCell is one library-cell instance of the flattened design.
type FlatCell struct {
	ID       int
	Path     string // full hierarchical instance path
	Def      *cell.Def
	In       []int    // net IDs aligned with Def.Inputs
	Out      []int    // net IDs aligned with Def.Outputs
	Trail    []string // instance-name path segments, excluding the leaf cell
	ModTypes []string // module type name at each trail segment (Trail[0] is top)
	Level    int      // combinational level; 0 for sequential and source cells
}

// Depth returns the hierarchy depth of the cell (number of module levels
// above it, counting the top module).
func (c *FlatCell) Depth() int { return len(c.Trail) }

// Flat is a flattened, simulation-ready view of a design.
type Flat struct {
	Name      string
	Cells     []*FlatCell
	Nets      []*FlatNet
	NetIndex  map[string]int // hierarchical net name -> net ID
	CellIndex map[string]int // hierarchical cell path -> cell ID
	PIs       []int          // net IDs of top-level inputs
	POs       []int          // net IDs of top-level outputs
	MaxLevel  int

	progOnce sync.Once
	prog     *Program
}

// NetByName resolves a hierarchical net name, following aliases created by
// port connections during flattening.
func (f *Flat) NetByName(name string) (*FlatNet, error) {
	id, ok := f.NetIndex[name]
	if !ok {
		return nil, fmt.Errorf("netlist: no net named %q", name)
	}
	return f.Nets[id], nil
}

// CellByPath resolves a hierarchical instance path.
func (f *Flat) CellByPath(path string) (*FlatCell, error) {
	id, ok := f.CellIndex[path]
	if !ok {
		return nil, fmt.Errorf("netlist: no cell at path %q", path)
	}
	return f.Cells[id], nil
}

// SequentialCells returns the IDs of all state-holding cells.
func (f *Flat) SequentialCells() []int {
	var ids []int
	for _, c := range f.Cells {
		if c.Def.IsSequential() {
			ids = append(ids, c.ID)
		}
	}
	return ids
}

// CombinationalCells returns the IDs of all combinational cells.
func (f *Flat) CombinationalCells() []int {
	var ids []int
	for _, c := range f.Cells {
		if !c.Def.IsSequential() {
			ids = append(ids, c.ID)
		}
	}
	return ids
}

// Flatten elaborates the design hierarchy into a flat cell/net graph. The
// design must Validate cleanly first; Flatten validates internally and
// returns the first error found.
func Flatten(d *Design) (*Flat, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	top, err := d.TopModule()
	if err != nil {
		return nil, err
	}
	size := d.presize()
	f := &Flat{
		Name:      d.Name,
		Nets:      make([]*FlatNet, 0, size.nets),
		Cells:     make([]*FlatCell, 0, size.cells),
		NetIndex:  make(map[string]int, size.netNames),
		CellIndex: make(map[string]int, size.cells),
	}
	// The count is exact, so every net and cell is carved from one slab.
	netSlab := make([]FlatNet, size.nets)
	cellSlab := make([]FlatCell, size.cells)
	newNet := func(name string) int {
		id := len(f.Nets)
		n := &netSlab[id]
		*n = FlatNet{ID: id, Name: name, Driver: -1}
		f.Nets = append(f.Nets, n)
		f.NetIndex[name] = id
		return id
	}

	// Top-level ports become primary inputs/outputs.
	topEnv := make(map[string]int, len(top.Ports)+len(top.Wires))
	for _, p := range top.Ports {
		id := newNet(p.Name)
		topEnv[p.Name] = id
		if p.Dir == Input {
			f.Nets[id].IsPI = true
			f.PIs = append(f.PIs, id)
		} else {
			f.Nets[id].IsPO = true
			f.Nets[id].POName = p.Name
			f.POs = append(f.POs, id)
		}
	}

	var elaborate func(m *Module, prefix string, env map[string]int, trail, modTypes []string) error
	elaborate = func(m *Module, prefix string, env map[string]int, trail, modTypes []string) error {
		for _, w := range m.Wires {
			env[w] = newNet(prefix + w)
		}
		for _, inst := range m.Instances {
			if sub, ok := d.Modules[inst.Of]; ok {
				subEnv := make(map[string]int, len(sub.Ports)+len(sub.Wires))
				subPrefix := prefix + inst.Name + "."
				for port, net := range inst.Conns {
					gid, ok := env[net]
					if !ok {
						return fmt.Errorf("netlist: %s%s: net %q unresolved", prefix, inst.Name, net)
					}
					subEnv[port] = gid
					alias := subPrefix + port
					f.NetIndex[alias] = gid
					f.Nets[gid].Aliases = append(f.Nets[gid].Aliases, alias)
				}
				err := elaborate(sub, subPrefix,
					subEnv,
					append(append([]string(nil), trail...), inst.Name),
					append(append([]string(nil), modTypes...), sub.Name))
				if err != nil {
					return err
				}
				continue
			}
			def, err := cell.Lookup(inst.Of)
			if err != nil {
				return fmt.Errorf("netlist: %s%s: %v", prefix, inst.Name, err)
			}
			fc := &cellSlab[len(f.Cells)]
			*fc = FlatCell{
				ID:       len(f.Cells),
				Path:     prefix + inst.Name,
				Def:      def,
				In:       make([]int, len(def.Inputs)),
				Out:      make([]int, len(def.Outputs)),
				Trail:    trail,
				ModTypes: modTypes,
			}
			for i, port := range def.Inputs {
				gid, ok := env[inst.Conns[port]]
				if !ok {
					return fmt.Errorf("netlist: %s: input %s on net %q unresolved", fc.Path, port, inst.Conns[port])
				}
				fc.In[i] = gid
				f.Nets[gid].Fanout = append(f.Nets[gid].Fanout, CellPort{Cell: fc.ID, Pin: i})
			}
			for i, port := range def.Outputs {
				gid, ok := env[inst.Conns[port]]
				if !ok {
					return fmt.Errorf("netlist: %s: output %s on net %q unresolved", fc.Path, port, inst.Conns[port])
				}
				fc.Out[i] = gid
				if f.Nets[gid].Driver >= 0 {
					return fmt.Errorf("netlist: net %q multiply driven after flattening", f.Nets[gid].Name)
				}
				if f.Nets[gid].IsPI {
					return fmt.Errorf("netlist: primary input %q driven by %s", f.Nets[gid].Name, fc.Path)
				}
				f.Nets[gid].Driver = fc.ID
				f.Nets[gid].DrvPin = i
			}
			f.Cells = append(f.Cells, fc)
			f.CellIndex[fc.Path] = fc.ID
		}
		return nil
	}

	if err := elaborate(top, "", topEnv, []string{top.Name}, []string{top.Name}); err != nil {
		return nil, err
	}
	if err := f.levelize(); err != nil {
		return nil, err
	}
	return f, nil
}

// flatSize is the exact size of a design's flattened view: one net per
// top-level port and per wire of every module instance, one cell per
// library-cell instance, and one NetIndex name per net plus one per port
// connection of every submodule instance (its hierarchical alias).
type flatSize struct{ nets, cells, netNames int }

// presize counts the flattened view Flatten builds by walking the
// hierarchy once, each module's subtree counted once however often it is
// instantiated, so the tables are allocated at their final size.
func (d *Design) presize() flatSize {
	memo := map[string]flatSize{}
	var count func(name string) flatSize
	count = func(name string) flatSize {
		if c, ok := memo[name]; ok {
			return c
		}
		m := d.Modules[name]
		c := flatSize{nets: len(m.Wires), netNames: len(m.Wires)}
		for _, inst := range m.Instances {
			if _, ok := d.Modules[inst.Of]; !ok {
				c.cells++
				continue
			}
			sc := count(inst.Of)
			c.nets += sc.nets
			c.cells += sc.cells
			c.netNames += sc.netNames + len(inst.Conns)
		}
		memo[name] = c
		return c
	}
	c := count(d.Top)
	n := len(d.Modules[d.Top].Ports)
	c.nets += n
	c.netNames += n
	return c
}

// levelize assigns a topological level to every combinational cell: a cell's
// level is 1 + the max level of its combinational drivers; primary inputs
// and sequential outputs are level 0. It fails on combinational loops.
func (f *Flat) levelize() error {
	indeg := make([]int, len(f.Cells))
	var queue []int
	for _, c := range f.Cells {
		if c.Def.IsSequential() {
			c.Level = 0
			continue
		}
		deg := 0
		for _, nid := range c.In {
			drv := f.Nets[nid].Driver
			if drv >= 0 && !f.Cells[drv].Def.IsSequential() {
				deg++
			}
		}
		indeg[c.ID] = deg
		if deg == 0 {
			c.Level = 1
			queue = append(queue, c.ID)
		}
	}
	processed := 0
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		processed++
		c := f.Cells[id]
		if c.Level > f.MaxLevel {
			f.MaxLevel = c.Level
		}
		for _, nid := range c.Out {
			for _, fo := range f.Nets[nid].Fanout {
				succ := f.Cells[fo.Cell]
				if succ.Def.IsSequential() {
					continue
				}
				if succ.Level < c.Level+1 {
					succ.Level = c.Level + 1
				}
				indeg[fo.Cell]--
				if indeg[fo.Cell] == 0 {
					queue = append(queue, fo.Cell)
				}
			}
		}
	}
	combCount := 0
	for _, c := range f.Cells {
		if !c.Def.IsSequential() {
			combCount++
		}
	}
	if processed != combCount {
		var stuck []string
		for _, c := range f.Cells {
			if !c.Def.IsSequential() && indeg[c.ID] > 0 {
				stuck = append(stuck, c.Path)
				if len(stuck) >= 5 {
					break
				}
			}
		}
		return fmt.Errorf("netlist: combinational loop involving %s", strings.Join(stuck, ", "))
	}
	return nil
}
