// Package vpi provides a Verilog Procedural Interface-style control layer
// over a simulation engine, mirroring the IEEE Std 1364-2005 mechanisms the
// paper uses to drive Synopsys VCS and OSS-CVC: object handles looked up by
// hierarchical name, value access, force/release (vpi_put_value with the
// vpiForceFlag), and value-change and at-time callbacks. The fault-injection
// campaign talks to the simulator exclusively through this interface, so it
// works unchanged against either engine — the role VPI plays for the paper's
// two commercial/open simulators.
package vpi

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/sim"
)

// ObjectKind distinguishes the two handle types the framework uses.
type ObjectKind uint8

// Handle kinds, named after their IEEE-1364 counterparts.
const (
	ObjNet ObjectKind = iota // vpiNet
	ObjReg                   // vpiReg: a sequential cell's storage node
)

// Handle references a simulation object, like a vpiHandle.
type Handle struct {
	Kind ObjectKind
	Name string
	id   int
}

// ID exposes the underlying engine index (net ID or cell ID).
func (h *Handle) ID() int { return h.id }

// Interface is one VPI session bound to an engine.
type Interface struct {
	eng sim.Engine
}

// New binds a VPI session to an engine.
func New(eng sim.Engine) *Interface {
	return &Interface{eng: eng}
}

// HandleByName resolves a hierarchical name to a handle, like
// vpi_handle_by_name: net names resolve to ObjNet, sequential-cell instance
// paths resolve to ObjReg.
func (v *Interface) HandleByName(name string) (*Handle, error) {
	f := v.eng.Flat()
	if n, err := f.NetByName(name); err == nil {
		return &Handle{Kind: ObjNet, Name: name, id: n.ID}, nil
	}
	if c, err := f.CellByPath(name); err == nil {
		if !c.Def.IsSequential() {
			return nil, fmt.Errorf("vpi: %q is a combinational cell; only nets and storage cells have handles", name)
		}
		return &Handle{Kind: ObjReg, Name: name, id: c.ID}, nil
	}
	return nil, fmt.Errorf("vpi: no object named %q", name)
}

// NetHandle builds a handle directly from a flat net ID.
func (v *Interface) NetHandle(netID int) (*Handle, error) {
	f := v.eng.Flat()
	if netID < 0 || netID >= len(f.Nets) {
		return nil, fmt.Errorf("vpi: net %d out of range", netID)
	}
	return &Handle{Kind: ObjNet, Name: f.Nets[netID].Name, id: netID}, nil
}

// RegHandle builds a handle directly from a flat sequential cell ID.
func (v *Interface) RegHandle(cellID int) (*Handle, error) {
	f := v.eng.Flat()
	if cellID < 0 || cellID >= len(f.Cells) {
		return nil, fmt.Errorf("vpi: cell %d out of range", cellID)
	}
	c := f.Cells[cellID]
	if !c.Def.IsSequential() {
		return nil, fmt.Errorf("vpi: cell %q is not sequential", c.Path)
	}
	return &Handle{Kind: ObjReg, Name: c.Path, id: cellID}, nil
}

// GetValue reads the present value of a handle, like vpi_get_value: the net
// value for ObjNet, the stored state for ObjReg.
func (v *Interface) GetValue(h *Handle) (logic.V, error) {
	switch h.Kind {
	case ObjNet:
		return v.eng.Value(h.id), nil
	case ObjReg:
		return v.eng.State(h.id)
	}
	return logic.X, fmt.Errorf("vpi: bad handle kind %d", h.Kind)
}

// Force schedules a value override on a net at time t, like vpi_put_value
// with vpiForceFlag — the SET injection primitive.
func (v *Interface) Force(h *Handle, t uint64, val logic.V) error {
	if h.Kind != ObjNet {
		return fmt.Errorf("vpi: Force requires a net handle, got %q", h.Name)
	}
	v.eng.ScheduleForce(t, h.id, val)
	return nil
}

// Release schedules removal of a force at time t, like vpi_put_value with
// vpiReleaseFlag.
func (v *Interface) Release(h *Handle, t uint64) error {
	if h.Kind != ObjNet {
		return fmt.Errorf("vpi: Release requires a net handle, got %q", h.Name)
	}
	v.eng.ScheduleRelease(t, h.id)
	return nil
}

// FlipReg schedules an inversion of a storage cell's state at time t — the
// SEU injection primitive (a deposit of the complemented value).
func (v *Interface) FlipReg(h *Handle, t uint64) error {
	if h.Kind != ObjReg {
		return fmt.Errorf("vpi: FlipReg requires a reg handle, got %q", h.Name)
	}
	return v.eng.ScheduleFlip(t, h.id)
}

// CbValueChange registers a value-change callback on a net handle, like
// vpi_register_cb with cbValueChange.
func (v *Interface) CbValueChange(h *Handle, fn func(t uint64, val logic.V)) error {
	if h.Kind != ObjNet {
		return fmt.Errorf("vpi: CbValueChange requires a net handle, got %q", h.Name)
	}
	v.eng.OnNetChange(h.id, sim.NetCallback(fn))
	return nil
}

// CbAtTime registers a one-shot callback at absolute time t.
func (v *Interface) CbAtTime(t uint64, fn func()) {
	v.eng.At(t, fn)
}
