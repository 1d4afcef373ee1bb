// Package netlist models hierarchical gate-level netlists: modules composed
// of library-cell instances and submodule instances wired by scalar nets.
// It provides flattening to a simulation-ready graph, topological
// levelization, and a structural-Verilog-subset writer and parser so designs
// round-trip through the same textual form real EDA flows exchange.
//
// Bus signals are represented as scalar nets named "bus[i]"; the Verilog
// writer emits them as escaped identifiers, which keeps every net scalar and
// the simulator simple without losing generality.
package netlist

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cell"
)

// Dir is a port direction.
type Dir uint8

// Port directions.
const (
	Input Dir = iota
	Output
)

// String returns the Verilog keyword for d.
func (d Dir) String() string {
	if d == Input {
		return "input"
	}
	return "output"
}

// Port is a scalar module port.
type Port struct {
	Name string
	Dir  Dir
}

// Instance instantiates either a library cell or another module of the same
// design. Conns maps the instantiated entity's port names to net names in
// the enclosing module.
type Instance struct {
	Name  string
	Of    string // library cell name or module name
	Conns map[string]string
}

// Module is one level of the design hierarchy.
type Module struct {
	Name      string
	Ports     []Port
	Wires     []string // internal nets (ports are implicitly nets too)
	Instances []*Instance
}

// NewModule returns an empty module with the given name.
func NewModule(name string) *Module {
	return &Module{Name: name}
}

// AddPort appends a scalar port and returns its net name.
func (m *Module) AddPort(name string, d Dir) string {
	m.Ports = append(m.Ports, Port{Name: name, Dir: d})
	return name
}

// AddBusPort appends width scalar ports named base[0..width-1], LSB first,
// and returns the net names.
func (m *Module) AddBusPort(base string, width int, d Dir) []string {
	names := make([]string, width)
	for i := 0; i < width; i++ {
		names[i] = fmt.Sprintf("%s[%d]", base, i)
		m.AddPort(names[i], d)
	}
	return names
}

// AddWire declares an internal net and returns its name.
func (m *Module) AddWire(name string) string {
	m.Wires = append(m.Wires, name)
	return name
}

// AddBusWire declares width internal nets named base[0..width-1].
func (m *Module) AddBusWire(base string, width int) []string {
	names := make([]string, width)
	for i := 0; i < width; i++ {
		names[i] = m.AddWire(fmt.Sprintf("%s[%d]", base, i))
	}
	return names
}

// AddInstance appends an instance of a cell or submodule.
func (m *Module) AddInstance(name, of string, conns map[string]string) *Instance {
	inst := &Instance{Name: name, Of: of, Conns: conns}
	m.Instances = append(m.Instances, inst)
	return inst
}

// PortByName returns the port with the given name, if present.
func (m *Module) PortByName(name string) (Port, bool) {
	for _, p := range m.Ports {
		if p.Name == name {
			return p, true
		}
	}
	return Port{}, false
}

// NetNames returns every net visible in the module: ports then wires.
func (m *Module) NetNames() []string {
	names := make([]string, 0, len(m.Ports)+len(m.Wires))
	for _, p := range m.Ports {
		names = append(names, p.Name)
	}
	names = append(names, m.Wires...)
	return names
}

// Design is a set of modules with a designated top.
type Design struct {
	Name    string
	Top     string
	Modules map[string]*Module
}

// NewDesign returns an empty design.
func NewDesign(name string) *Design {
	return &Design{Name: name, Modules: map[string]*Module{}}
}

// AddModule registers m, replacing any module with the same name.
func (d *Design) AddModule(m *Module) {
	d.Modules[m.Name] = m
}

// TopModule returns the top module or an error when unset/missing.
func (d *Design) TopModule() (*Module, error) {
	m, ok := d.Modules[d.Top]
	if !ok {
		return nil, fmt.Errorf("netlist: top module %q not found in design %q", d.Top, d.Name)
	}
	return m, nil
}

// ModuleNames returns the module names in sorted order.
func (d *Design) ModuleNames() []string {
	names := make([]string, 0, len(d.Modules))
	for n := range d.Modules {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Validate checks structural integrity: every instance refers to a known
// cell or module, every connection names a known port of the target and a
// known net of the enclosing module, every net has at most one driver, and
// the hierarchy is acyclic.
func (d *Design) Validate() error {
	if _, err := d.TopModule(); err != nil {
		return err
	}
	if err := d.checkHierarchyAcyclic(); err != nil {
		return err
	}
	// Each entity's port list is built once per design, not once per
	// instance of it.
	type portTable struct {
		ports []Port
		err   error
	}
	tables := map[string]portTable{}
	for _, mname := range d.ModuleNames() {
		m := d.Modules[mname]
		nets := make(map[string]bool, len(m.Ports)+len(m.Wires))
		for _, n := range m.NetNames() {
			if nets[n] {
				return fmt.Errorf("netlist: module %s: duplicate net %q", m.Name, n)
			}
			nets[n] = true
		}
		// A net's driver: an input port (inst empty) or an instance pin.
		type driver struct{ inst, port string }
		driverName := func(dv driver) string {
			if dv.inst == "" {
				return "port " + dv.port
			}
			return dv.inst + "." + dv.port
		}
		drivers := make(map[string]driver, len(nets))
		for _, p := range m.Ports {
			if p.Dir == Input {
				drivers[p.Name] = driver{port: p.Name}
			}
		}
		instNames := make(map[string]bool, len(m.Instances))
		for _, inst := range m.Instances {
			if instNames[inst.Name] {
				return fmt.Errorf("netlist: module %s: duplicate instance %q", m.Name, inst.Name)
			}
			instNames[inst.Name] = true
			pt, ok := tables[inst.Of]
			if !ok {
				pt.ports, pt.err = d.entityPorts(inst.Of)
				tables[inst.Of] = pt
			}
			if pt.err != nil {
				return fmt.Errorf("netlist: module %s instance %s: %v", m.Name, inst.Name, pt.err)
			}
			// The ports are walked in declaration order, never the Conns
			// map, so a bad design always reports the same error.
			matched, unconnected := 0, ""
			for _, p := range pt.ports {
				net, ok := inst.Conns[p.Name]
				if !ok {
					if unconnected == "" {
						unconnected = p.Name
					}
					continue
				}
				matched++
				if !nets[net] {
					return fmt.Errorf("netlist: module %s instance %s: net %q not declared", m.Name, inst.Name, net)
				}
				if p.Dir == Output {
					if prev, dup := drivers[net]; dup {
						return fmt.Errorf("netlist: module %s: net %q driven by both %s and %s.%s",
							m.Name, net, driverName(prev), inst.Name, p.Name)
					}
					drivers[net] = driver{inst.Name, p.Name}
				}
			}
			if matched < len(inst.Conns) {
				return fmt.Errorf("netlist: module %s instance %s: %q has no port %q", m.Name, inst.Name, inst.Of, unknownPort(inst.Conns, pt.ports))
			}
			// All ports of the instantiated entity must be connected: a
			// floating input would simulate as X forever and a floating
			// output is almost always a generator bug.
			if unconnected != "" {
				return fmt.Errorf("netlist: module %s instance %s: port %q unconnected", m.Name, inst.Name, unconnected)
			}
		}
	}
	return nil
}

// unknownPort returns the first connection, in name order, that names
// none of ports.
func unknownPort(conns map[string]string, ports []Port) string {
	known := make(map[string]bool, len(ports))
	for _, p := range ports {
		known[p.Name] = true
	}
	var unknown []string
	for port := range conns {
		if !known[port] {
			unknown = append(unknown, port)
		}
	}
	sort.Strings(unknown)
	return unknown[0]
}

// entityPorts returns the ports of a module or library cell in
// declaration order: the module's Ports, or the cell's inputs then
// outputs.
func (d *Design) entityPorts(of string) ([]Port, error) {
	if sub, ok := d.Modules[of]; ok {
		return sub.Ports, nil
	}
	def, err := cell.Lookup(of)
	if err != nil {
		return nil, fmt.Errorf("%q is neither a module nor a library cell", of)
	}
	ports := make([]Port, 0, len(def.Inputs)+len(def.Outputs))
	for _, p := range def.Inputs {
		ports = append(ports, Port{Name: p, Dir: Input})
	}
	for _, p := range def.Outputs {
		ports = append(ports, Port{Name: p, Dir: Output})
	}
	return ports, nil
}

func (d *Design) checkHierarchyAcyclic() error {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	state := map[string]int{}
	var visit func(name string, trail []string) error
	visit = func(name string, trail []string) error {
		m, ok := d.Modules[name]
		if !ok {
			return nil // library cell
		}
		switch state[name] {
		case gray:
			return fmt.Errorf("netlist: hierarchy cycle: %s", strings.Join(append(trail, name), " -> "))
		case black:
			return nil
		}
		state[name] = gray
		trail = append(trail, name)
		for _, inst := range m.Instances {
			if err := visit(inst.Of, trail); err != nil {
				return err
			}
		}
		state[name] = black
		return nil
	}
	return visit(d.Top, nil)
}
