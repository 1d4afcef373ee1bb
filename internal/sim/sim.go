// Package sim provides two gate-level logic simulation engines over a
// flattened netlist:
//
//   - EventSim: an event-driven simulator with per-cell inertial delays and
//     a time-ordered event queue — the stand-in for the commercial Synopsys
//     VCS baseline of the paper.
//   - LevelSim: a levelized oblivious (compiled rank-order) simulator that
//     re-evaluates the full combinational rank order at every scheduled time
//     step — the stand-in for the open-source OSS-CVC baseline.
//
// Both engines share the Engine interface, support force/release on nets
// (the SET injection mechanism) and sequential-state flips (the SEU
// injection mechanism), and expose value-change callbacks that the vpi and
// vcd layers build on. Time is measured in integer picoseconds.
package sim

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// NetCallback observes a net value change at a simulation time.
type NetCallback func(t uint64, v logic.V)

// Engine is the common contract of both simulation engines.
type Engine interface {
	// Name identifies the engine ("EventSim" or "LevelSim").
	Name() string
	// Flat returns the design under simulation.
	Flat() *netlist.Flat
	// Now returns the current simulation time in picoseconds.
	Now() uint64
	// Value returns the present value of a net.
	Value(net int) logic.V
	// State returns the stored state of a sequential cell.
	State(cellID int) (logic.V, error)
	// FlipState inverts the stored state of a sequential cell at the
	// current time — the SEU fault action.
	FlipState(cellID int) error
	// ScheduleInput drives a primary input to v at time t.
	ScheduleInput(t uint64, net int, v logic.V) error
	// ScheduleForce overrides a net to v at time t regardless of its
	// driver — the SET fault action's leading edge.
	ScheduleForce(t uint64, net int, v logic.V)
	// ScheduleRelease removes a force at time t, restoring the driven
	// value — the SET fault action's trailing edge.
	ScheduleRelease(t uint64, net int)
	// ScheduleFlip inverts a sequential cell's state at time t.
	ScheduleFlip(t uint64, cellID int) error
	// At runs fn when simulation time reaches t.
	At(t uint64, fn func())
	// OnNetChange registers a value-change callback for a net.
	OnNetChange(net int, fn NetCallback)
	// Run advances simulation until no event remains at or before `until`,
	// leaving Now() == until.
	Run(until uint64) error
	// CellEvals reports how many cell evaluations the run performed — the
	// work metric behind the runtime comparisons of Table III.
	CellEvals() uint64
	// Snapshot captures the engine's complete execution state — values,
	// forces, sequential state, eval counter and all queued data events —
	// as an immutable checkpoint. Registered callbacks are not captured.
	// On EventSim the phase rule matters: a snapshot taken inside a Run
	// keeps the run's in-flight transitions behind events scheduled after
	// restoring it at equal instants, which is what resuming as a golden
	// checkpoint needs; one taken between Runs normalises them to phase 0,
	// so events scheduled after restoring it order behind them. That is
	// right for continuing this engine, not for resuming as a golden
	// checkpoint (EventSim.CopyFrom gives that).
	Snapshot() *Checkpoint
	// Restore resets the engine wholesale to a checkpoint previously taken
	// on the same design and engine kind, discarding all registered
	// callbacks; the caller re-registers observers before resuming Run.
	// Restoring is the warm-start primitive: a run resumed from a
	// checkpoint is bit-identical to one simulated from time zero.
	Restore(*Checkpoint) error
	// RestoreDelta is a synonym for Restore, kept for callers that still
	// use the name (the benchmark harness's restore probe).
	RestoreDelta(*Checkpoint) error
	// Reset returns the engine to power-on, as its constructor leaves it:
	// every net at X, storage at its initial state, nothing queued but the
	// power-on events, time and eval counter zero, no callbacks. It is not
	// a restore: it runs the constructor's own code, reusing the engine's
	// planes and queue arena. Not to be called inside Run.
	Reset()
	// MatchesCheckpoint reports whether the engine's present state is
	// indistinguishable from the checkpoint (ignoring callbacks and the
	// eval counter), i.e. whether its future evolution is guaranteed
	// bit-identical to a run resumed from that checkpoint.
	MatchesCheckpoint(*Checkpoint) bool
}

// EngineKind selects an engine implementation by name.
type EngineKind string

// Engine kinds. The VCS/CVC aliases document which published baseline each
// engine stands in for.
const (
	KindEvent EngineKind = "EventSim"
	KindLevel EngineKind = "LevelSim"
)

// New constructs an engine of the given kind over a flattened design.
func New(kind EngineKind, f *netlist.Flat) (Engine, error) {
	switch kind {
	case KindEvent:
		return NewEventSim(f), nil
	case KindLevel:
		return NewLevelSim(f), nil
	}
	return nil, fmt.Errorf("sim: unknown engine kind %q", kind)
}

// actKind classifies a scheduled action. Both engines schedule from this
// one enum, and a checkpoint stores every kind but actFunc.
type actKind uint8

const (
	actNet   actKind = iota // driver-produced net transition (inertial; EventSim only)
	actInput                // primary input change
	actForce
	actRelease
	actFlip
	actFunc // callback: observer state, never checkpointed
)

// planeLayout is how many per-net and per-cell value planes each engine
// kind keeps (and a checkpoint of that kind therefore stores), and which
// net plane, if any, is held — live only while its net is forced:
//
//	EventSim: cur, driven            | state
//	LevelSim: cur, inputVal, forcedVal | state, prevClk
var planeLayout = map[EngineKind]struct{ net, cell, held int }{
	KindEvent: {net: 2, cell: 1, held: -1},
	KindLevel: {net: 3, cell: 2, held: 2},
}

// core is what both engines are built on: the design and its compiled
// program, the clock, the eval counter, the value planes a checkpoint
// captures, the event queue and the callbacks — together with the part of
// the Engine contract that reads nothing else.
type core struct {
	kind      EngineKind
	flat      *netlist.Flat
	prog      *netlist.Program
	now       uint64
	cellEvals uint64

	// netPlanes and cellPlanes are the engine's per-net and per-cell value
	// arrays in checkpoint order (see planeLayout); cur and state alias
	// plane 0 of each, and the engines alias the rest under their own
	// names. The arrays are allocated once and only ever written in place.
	netPlanes, cellPlanes [][]logic.V
	heldPlane             int
	cur                   []logic.V // present value of each net
	forced                []bool
	state                 []logic.V // per-cell sequential state (X for comb cells)

	q queue

	// cbAt is 1 + the index in cbs of each net's callbacks, 0 for none.
	cbAt []int32
	cbs  []netCallbacks
}

// netCallbacks are one net's value-change callbacks in registration order.
type netCallbacks struct {
	net int32
	fns []NetCallback
}

// newCore allocates the planes of a kind-engine over f; reset gives them
// their power-on values.
func newCore(kind EngineKind, f *netlist.Flat) core {
	layout := planeLayout[kind]
	c := core{
		kind:       kind,
		flat:       f,
		prog:       f.Program(),
		netPlanes:  newPlanes(layout.net, len(f.Nets)),
		cellPlanes: newPlanes(layout.cell, len(f.Cells)),
		heldPlane:  layout.held,
		forced:     make([]bool, len(f.Nets)),
		cbAt:       make([]int32, len(f.Nets)),
	}
	c.cur, c.state = c.netPlanes[0], c.cellPlanes[0]
	return c
}

func newPlanes(n, size int) [][]logic.V {
	planes := make([][]logic.V, n)
	for i := range planes {
		planes[i] = make([]logic.V, size)
	}
	return planes
}

// reset is the half of power-on every engine shares: every plane value
// at X, nothing forced, the clock and eval counter at zero, the queue
// empty with its sequence numbers starting over, and no callbacks. The
// planes and the queue's arena are kept, written in place.
func (c *core) reset() {
	for _, p := range c.netPlanes {
		fillX(p)
	}
	for _, p := range c.cellPlanes {
		fillX(p)
	}
	clear(c.forced)
	c.q.setRun(c.q.drop())
	c.q.seq = 0
	c.now, c.cellEvals = 0, 0
	c.dropCallbacks()
}

func fillX(p []logic.V) {
	for i := range p {
		p[i] = logic.X
	}
}

// OnNetChange implements Engine.
func (c *core) OnNetChange(net int, fn NetCallback) {
	if c.cbAt[net] == 0 {
		c.cbs = append(c.cbs, netCallbacks{net: int32(net)})
		c.cbAt[net] = int32(len(c.cbs))
	}
	cb := &c.cbs[c.cbAt[net]-1]
	cb.fns = append(cb.fns, fn)
}

// callbacks returns the callbacks registered on net nid.
func (c *core) callbacks(nid int32) []NetCallback {
	if k := c.cbAt[nid]; k != 0 {
		return c.cbs[k-1].fns
	}
	return nil
}

// dropCallbacks unregisters every callback.
func (c *core) dropCallbacks() {
	for _, cb := range c.cbs {
		c.cbAt[cb.net] = 0
	}
	clear(c.cbs)
	c.cbs = c.cbs[:0]
}

// Name implements Engine.
func (c *core) Name() string { return string(c.kind) }

// Flat implements Engine.
func (c *core) Flat() *netlist.Flat { return c.flat }

// Now implements Engine.
func (c *core) Now() uint64 { return c.now }

// Value implements Engine.
func (c *core) Value(net int) logic.V { return c.cur[net] }

// State implements Engine.
func (c *core) State(cellID int) (logic.V, error) {
	if err := validateSeqCell(c.flat, cellID); err != nil {
		return logic.X, err
	}
	return c.state[cellID], nil
}

// CellEvals implements Engine.
func (c *core) CellEvals() uint64 { return c.cellEvals }

// validateInput checks that net is a primary input of f.
func validateInput(f *netlist.Flat, net int) error {
	if net < 0 || net >= len(f.Nets) {
		return fmt.Errorf("sim: net %d out of range", net)
	}
	if !f.Nets[net].IsPI {
		return fmt.Errorf("sim: net %q is not a primary input", f.Nets[net].Name)
	}
	return nil
}

// validateSeqCell checks that cellID names a sequential cell of f.
func validateSeqCell(f *netlist.Flat, cellID int) error {
	if cellID < 0 || cellID >= len(f.Cells) {
		return fmt.Errorf("sim: cell %d out of range", cellID)
	}
	if !f.Cells[cellID].Def.IsSequential() {
		return fmt.Errorf("sim: cell %q is not sequential", f.Cells[cellID].Path)
	}
	return nil
}
