package sim

import (
	"fmt"
	"testing"

	"repro/internal/logic"
)

// sampleInto registers pre-edge samples of (q1,q0) for cycles from..to and
// returns the slice the samples land in after Run.
func sampleInto(t *testing.T, e Engine, from, to int) *[]string {
	t.Helper()
	f := e.Flat()
	q0, q1 := netID(t, f, "q0"), netID(t, f, "q1")
	got := &[]string{}
	for c := from; c <= to; c++ {
		tm := uint64(c*period) - 10
		e.At(tm, func() {
			*got = append(*got, fmt.Sprintf("%v%v", e.Value(q1), e.Value(q0)))
		})
	}
	return got
}

func TestSnapshotRestoreResumesIdentically(t *testing.T) {
	for name, mk := range engines(t) {
		t.Run(name, func(t *testing.T) {
			const last = 12
			// Reference: one uninterrupted run.
			ref := mk()
			setupCounter(t, ref, last*period)
			refGot := sampleInto(t, ref, 2, last)
			if err := ref.Run(last * period); err != nil {
				t.Fatal(err)
			}

			// Producer: same run, snapshotting mid-flight at 4500ps.
			prod := mk()
			setupCounter(t, prod, last*period)
			prodGot := sampleInto(t, prod, 2, last)
			var ck *Checkpoint
			prod.At(4500, func() { ck = prod.Snapshot() })
			if err := prod.Run(last * period); err != nil {
				t.Fatal(err)
			}
			for i := range *refGot {
				if (*refGot)[i] != (*prodGot)[i] {
					t.Fatalf("snapshotting perturbed the producing run at sample %d: %s vs %s", i, (*refGot)[i], (*prodGot)[i])
				}
			}
			if ck == nil {
				t.Fatal("snapshot callback never fired")
			}
			if ck.TimePS != 4500 {
				t.Fatalf("checkpoint at %dps, want 4500", ck.TimePS)
			}

			// Consumer: a second engine warm-starts from the checkpoint and
			// must reproduce the reference tail bit for bit.
			warm := mk()
			if err := warm.Restore(ck); err != nil {
				t.Fatal(err)
			}
			warmGot := sampleInto(t, warm, 5, last)
			if err := warm.Run(last * period); err != nil {
				t.Fatal(err)
			}
			tail := (*refGot)[3:] // cycles 5..last
			if len(*warmGot) != len(tail) {
				t.Fatalf("warm run captured %d samples, want %d", len(*warmGot), len(tail))
			}
			for i := range tail {
				if (*warmGot)[i] != tail[i] {
					t.Fatalf("warm tail sample %d = %s, want %s (warm %v ref %v)", i, (*warmGot)[i], tail[i], *warmGot, tail)
				}
			}
		})
	}
}

func TestRestoreWithFaultMatchesColdRun(t *testing.T) {
	// A forced pulse across a capture edge must produce the same faulty
	// tail whether the run is simulated from t=0 or warm-started from a
	// pre-strike checkpoint — the invariant the injection campaign's
	// warm-start path rests on.
	for name, mk := range engines(t) {
		t.Run(name, func(t *testing.T) {
			const last = 12
			inject := func(e Engine) {
				n1 := netID(t, e.Flat(), "n1")
				e.ScheduleForce(5800, n1, logic.L1)
				e.ScheduleRelease(6300, n1)
			}

			cold := mk()
			setupCounter(t, cold, last*period)
			inject(cold)
			coldGot := sampleInto(t, cold, 2, last)
			if err := cold.Run(last * period); err != nil {
				t.Fatal(err)
			}

			prod := mk()
			setupCounter(t, prod, last*period)
			var ck *Checkpoint
			prod.At(4500, func() { ck = prod.Snapshot() })
			if err := prod.Run(last * period); err != nil {
				t.Fatal(err)
			}

			warm := mk()
			if err := warm.Restore(ck); err != nil {
				t.Fatal(err)
			}
			inject(warm)
			warmGot := sampleInto(t, warm, 5, last)
			if err := warm.Run(last * period); err != nil {
				t.Fatal(err)
			}
			tail := (*coldGot)[3:]
			for i := range tail {
				if (*warmGot)[i] != tail[i] {
					t.Fatalf("faulty warm tail sample %d = %s, want %s (warm %v cold %v)", i, (*warmGot)[i], tail[i], *warmGot, tail)
				}
			}
		})
	}
}

func TestEngineReuseAcrossRestores(t *testing.T) {
	// One engine, restored repeatedly: a polluted faulty run must leave no
	// trace in the next restore-and-run cycle.
	for name, mk := range engines(t) {
		t.Run(name, func(t *testing.T) {
			const last = 12
			prod := mk()
			setupCounter(t, prod, last*period)
			cleanGot := sampleInto(t, prod, 5, last)
			var ck *Checkpoint
			prod.At(4500, func() { ck = prod.Snapshot() })
			if err := prod.Run(last * period); err != nil {
				t.Fatal(err)
			}
			clean := append([]string(nil), *cleanGot...)

			eng := mk()
			for trial := 0; trial < 3; trial++ {
				if err := eng.Restore(ck); err != nil {
					t.Fatal(err)
				}
				if trial == 1 {
					// Pollute: flip both flops and force a net, then run.
					n1 := netID(t, eng.Flat(), "n1")
					eng.ScheduleForce(5100, n1, logic.L1)
					if err := eng.ScheduleFlip(5300, cellIDByPath(t, eng, "u_ff0")); err != nil {
						t.Fatal(err)
					}
					if err := eng.Run(last * period); err != nil {
						t.Fatal(err)
					}
					continue
				}
				got := sampleInto(t, eng, 5, last)
				if err := eng.Run(last * period); err != nil {
					t.Fatal(err)
				}
				for i := range clean {
					if (*got)[i] != clean[i] {
						t.Fatalf("trial %d sample %d = %s, want %s", trial, i, (*got)[i], clean[i])
					}
				}
			}
		})
	}
}

func cellIDByPath(t *testing.T, e Engine, path string) int {
	t.Helper()
	c, err := e.Flat().CellByPath(path)
	if err != nil {
		t.Fatal(err)
	}
	return c.ID
}

func TestMatchesCheckpointConvergence(t *testing.T) {
	for name, mk := range engines(t) {
		t.Run(name, func(t *testing.T) {
			const last = 12
			prod := mk()
			setupCounter(t, prod, last*period)
			var ck1, ck2 *Checkpoint
			prod.At(4500, func() { ck1 = prod.Snapshot() })
			prod.At(8500, func() { ck2 = prod.Snapshot() })
			if err := prod.Run(last * period); err != nil {
				t.Fatal(err)
			}

			// A clean resume from ck1 must converge onto ck2.
			warm := mk()
			if err := warm.Restore(ck1); err != nil {
				t.Fatal(err)
			}
			if err := warm.Run(8500); err != nil {
				t.Fatal(err)
			}
			if !warm.MatchesCheckpoint(ck2) {
				t.Fatal("clean warm run does not match the later golden checkpoint")
			}
			if warm.MatchesCheckpoint(ck1) {
				t.Fatal("state at 8500ps claims to match the 4500ps checkpoint")
			}

			// A state flip must break convergence.
			if err := warm.FlipState(cellIDByPath(t, warm, "u_ff1")); err != nil {
				t.Fatal(err)
			}
			if warm.MatchesCheckpoint(ck2) {
				t.Fatal("flipped state still matches the golden checkpoint")
			}
		})
	}
}

func TestRestoreKindAndDesignMismatch(t *testing.T) {
	f := counterDesign(t)
	ev := NewEventSim(f)
	lv := NewLevelSim(f)
	if err := lv.Restore(ev.Snapshot()); err == nil {
		t.Error("LevelSim accepted an EventSim checkpoint")
	}
	if err := ev.Restore(lv.Snapshot()); err == nil {
		t.Error("EventSim accepted a LevelSim checkpoint")
	}
	var nilCk *Checkpoint
	if err := ev.Restore(nilCk); err == nil {
		t.Error("nil checkpoint accepted")
	}
}

// polluteTail runs a short faulty tail from the engine's current
// (restored) state: a forced pulse, a state flip and the tail's own
// activity change nets, cells and the event queue.
func polluteTail(t *testing.T, e Engine, until uint64) {
	t.Helper()
	n1 := netID(t, e.Flat(), "n1")
	e.ScheduleForce(5100, n1, logic.L1)
	e.ScheduleRelease(5700, n1)
	if err := e.ScheduleFlip(5300, cellIDByPath(t, e, "u_ff0")); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(until); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreDeltaMatchesFullRestore is the engine-reuse contract: an
// engine restored from a checkpoint after an arbitrary polluted tail must
// be indistinguishable from a fresh engine restored from it — pinned by
// MatchesCheckpoint and by running the identical faulty tail afterwards
// and comparing every sampled output and the eval count. Both the
// in-memory checkpoint and its decoded form are restored.
func TestRestoreDeltaMatchesFullRestore(t *testing.T) {
	for name, mk := range engines(t) {
		t.Run(name, func(t *testing.T) {
			const last = 12
			prod := mk()
			setupCounter(t, prod, last*period)
			var ck *Checkpoint
			prod.At(4500, func() { ck = prod.Snapshot() })
			if err := prod.Run(last * period); err != nil {
				t.Fatal(err)
			}

			// Reference: a fresh engine, restored once, faulty tail.
			ref := mk()
			if err := ref.Restore(ck); err != nil {
				t.Fatal(err)
			}
			refGot := sampleInto(t, ref, 5, last)
			polluteTail(t, ref, last*period)

			for src, from := range map[string]*Checkpoint{"in-memory": ck, "decoded": decode(t, encode(t, ck))} {
				// Reuse: restore, pollute with varying tail lengths, restore
				// again, and require convergence back onto the checkpoint
				// plus a bit-identical replay of the reference tail.
				eng := mk()
				if err := eng.Restore(from); err != nil {
					t.Fatal(err)
				}
				// 5400ps stops mid-pulse, with n1 still forced.
				for trial, until := range []uint64{6 * period, last * period, 5 * period, 5*period + 400, ck.TimePS} {
					polluteTail(t, eng, until)
					if err := eng.Restore(from); err != nil {
						t.Fatal(err)
					}
					if !eng.MatchesCheckpoint(ck) {
						t.Fatalf("%s trial %d (tail to %dps): reused engine does not match the checkpoint", src, trial, until)
					}
					got := sampleInto(t, eng, 5, last)
					polluteTail(t, eng, last*period)
					if len(*got) != len(*refGot) {
						t.Fatalf("%s trial %d: %d samples, want %d", src, trial, len(*got), len(*refGot))
					}
					for i := range *refGot {
						if (*got)[i] != (*refGot)[i] {
							t.Fatalf("%s trial %d sample %d = %s, want %s", src, trial, i, (*got)[i], (*refGot)[i])
						}
					}
					if eng.CellEvals() != ref.CellEvals() {
						t.Fatalf("%s trial %d: %d evals after the tail, fresh engine %d", src, trial, eng.CellEvals(), ref.CellEvals())
					}
					if err := eng.Restore(from); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
}

// TestMatchesCheckpointIgnoresReleasedForceValue pins the LevelSim pruning
// fix: a force/release pulse that fully decays must not keep the engine
// permanently mismatched against golden checkpoints just because the
// released net still remembers the pulse value in its (unobservable)
// forcedVal slot.
func TestMatchesCheckpointIgnoresReleasedForceValue(t *testing.T) {
	for name, mk := range engines(t) {
		t.Run(name, func(t *testing.T) {
			const last = 12
			prod := mk()
			setupCounter(t, prod, last*period)
			var ck1, ck2 *Checkpoint
			prod.At(4500, func() { ck1 = prod.Snapshot() })
			prod.At(8500, func() { ck2 = prod.Snapshot() })
			if err := prod.Run(last * period); err != nil {
				t.Fatal(err)
			}

			warm := mk()
			if err := warm.Restore(ck1); err != nil {
				t.Fatal(err)
			}
			// Pulse a net whose value is glitch-masked: force it to the value
			// it already carries, so nothing downstream changes and the run
			// re-converges the moment the force is released.
			n1 := netID(t, warm.Flat(), "n1")
			v := warm.Value(n1)
			warm.ScheduleForce(4600, n1, v)
			warm.ScheduleRelease(4700, n1)
			if err := warm.Run(8500); err != nil {
				t.Fatal(err)
			}
			if !warm.MatchesCheckpoint(ck2) {
				t.Fatal("released no-op force pulse keeps the run unprunable against later golden checkpoints")
			}
		})
	}
}
