package sim

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/vcd"
)

// Stimulus is one scheduled primary-input assignment.
type Stimulus struct {
	Time uint64
	Net  int // flat net ID; must be a primary input
	Val  logic.V
}

// ApplyStimuli schedules a list of input assignments on the engine.
func ApplyStimuli(e Engine, sts []Stimulus) error {
	for _, st := range sts {
		if err := e.ScheduleInput(st.Time, st.Net, st.Val); err != nil {
			return err
		}
	}
	return nil
}

// DriveClock schedules a free-running clock on a primary input: low at
// time 0, rising at phase + k*period, falling half a period later, up to
// and including `until`.
func DriveClock(e Engine, net int, periodPS, phasePS, until uint64) error {
	if periodPS < 2 {
		return fmt.Errorf("sim: clock period %dps too small", periodPS)
	}
	if err := e.ScheduleInput(0, net, logic.L0); err != nil {
		return err
	}
	for t := phasePS; t <= until; t += periodPS {
		if err := e.ScheduleInput(t, net, logic.L1); err != nil {
			return err
		}
		fall := t + periodPS/2
		if fall <= until {
			if err := e.ScheduleInput(fall, net, logic.L0); err != nil {
				return err
			}
		}
	}
	return nil
}

// AttachVCD declares the named nets in the writer, hooks value-change
// callbacks so every change is dumped, and writes the header. Call before
// Run. The caller closes the writer after the run.
func AttachVCD(e Engine, w *vcd.Writer, nets []int) error {
	f := e.Flat()
	for _, nid := range nets {
		if nid < 0 || nid >= len(f.Nets) {
			return fmt.Errorf("sim: monitor net %d out of range", nid)
		}
		if err := w.Declare(f.Nets[nid].Name, 1); err != nil {
			return err
		}
	}
	if err := w.WriteHeader(f.Name); err != nil {
		return err
	}
	for _, nid := range nets {
		name := f.Nets[nid].Name
		e.OnNetChange(nid, func(t uint64, v logic.V) {
			// The writer only fails on time reversal or unknown signals,
			// neither of which can happen through this wiring.
			_ = w.Change(t, name, logic.Vec{v})
		})
	}
	return nil
}
