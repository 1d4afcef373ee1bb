package sim

import (
	"testing"

	"repro/internal/logic"
)

// snapshotSchedule runs the counter workload once, snapshotting at 1ps
// past every rising edge from cycle 2 to `last-2`, and returns the
// checkpoints in ascending time order.
func snapshotSchedule(t *testing.T, e Engine, last int) []*Checkpoint {
	t.Helper()
	setupCounter(t, e, uint64(last)*period)
	var cks []*Checkpoint
	for c := 2; c <= last-2; c++ {
		e.At(uint64(c)*period+1, func() {
			cks = append(cks, e.Snapshot())
		})
	}
	if err := e.Run(uint64(last) * period); err != nil {
		t.Fatal(err)
	}
	return cks
}

// TestShareTailsPreservesRestores pins the copy-on-write contract: a run
// resumed from a tail-shared checkpoint is bit-identical to one resumed
// from the unshared original, and MatchesCheckpoint still recognizes
// convergence onto a shared checkpoint.
func TestShareTailsPreservesRestores(t *testing.T) {
	const last = 12
	for name, mk := range engines(t) {
		t.Run(name, func(t *testing.T) {
			plain := snapshotSchedule(t, mk(), last)
			shared := snapshotSchedule(t, mk(), last)
			ShareTails(shared)
			if len(plain) != len(shared) || len(plain) == 0 {
				t.Fatalf("checkpoint schedules differ: %d vs %d", len(plain), len(shared))
			}
			for i := range shared {
				if got, want := shared[i].QueuedEvents(), plain[i].QueuedEvents(); got != want {
					t.Fatalf("checkpoint %d logical queue length %d after sharing, want %d", i, got, want)
				}
				ref := mk()
				if err := ref.Restore(plain[i]); err != nil {
					t.Fatal(err)
				}
				refGot := sampleCounter(t, ref, i+3, last)
				warm := mk()
				if err := warm.Restore(shared[i]); err != nil {
					t.Fatal(err)
				}
				warmGot := sampleCounter(t, warm, i+3, last)
				if len(refGot) != len(warmGot) {
					t.Fatalf("checkpoint %d: sample counts differ: %d vs %d", i, len(refGot), len(warmGot))
				}
				for k := range refGot {
					if refGot[k] != warmGot[k] {
						t.Fatalf("checkpoint %d sample %d: shared restore diverged: %s vs %s", i, k, warmGot[k], refGot[k])
					}
				}
			}

			// A clean resume from the first shared checkpoint must still
			// converge onto every later shared checkpoint.
			warm := mk()
			if err := warm.Restore(shared[0]); err != nil {
				t.Fatal(err)
			}
			for i := 1; i < len(shared); i++ {
				if err := warm.Run(shared[i].TimePS); err != nil {
					t.Fatal(err)
				}
				if !warm.MatchesCheckpoint(shared[i]) {
					t.Fatalf("clean resume does not match shared checkpoint %d", i)
				}
			}
		})
	}
}

// TestShareTailsReducesOwnedMemory pins the memory contract behind the
// sharing: the summed owned queue storage of a dense checkpoint schedule
// must collapse to near one schedule's worth instead of scaling with the
// number of checkpoints.
func TestShareTailsReducesOwnedMemory(t *testing.T) {
	const last = 40
	for name, mk := range engines(t) {
		t.Run(name, func(t *testing.T) {
			cks := snapshotSchedule(t, mk(), last)
			before := 0
			for _, ck := range cks {
				before += ck.OwnedEvents()
			}
			ShareTails(cks)
			after := 0
			for _, ck := range cks {
				after += ck.OwnedEvents()
			}
			if after*4 > before {
				t.Fatalf("sharing saved too little: owned events %d -> %d (want >= 4x reduction)", before, after)
			}
			// The first checkpoint owns its full queue; later ones must own
			// only their per-pitch delta, not a full schedule each.
			full := cks[0].OwnedEvents()
			for i, ck := range cks[1:] {
				if own := ck.OwnedEvents(); own*2 > full {
					t.Fatalf("checkpoint %d still owns %d of ~%d events — tail not shared", i+1, own, full)
				}
			}
		})
	}
}

// TestDecodedScheduleResharesAndRestores walks the path an adopting
// process takes with a golden artifact: decode every checkpoint of the
// schedule, re-run ShareTails over the decoded set, restore from it. The
// sharing must come back, and both restore flavours from a decoded,
// re-shared checkpoint — whose queue now straddles an owned head and an
// aliased tail, from which LevelSim rebuilds its agenda map — must be
// indistinguishable from restoring the producing run's in-memory snapshot.
func TestDecodedScheduleResharesAndRestores(t *testing.T) {
	const last = 24
	for name, mk := range engines(t) {
		t.Run(name, func(t *testing.T) {
			plain := snapshotSchedule(t, mk(), last)
			adopted := make([]*Checkpoint, len(plain))
			before := 0
			for i, ck := range plain {
				adopted[i] = decode(t, encode(t, ck))
				before += adopted[i].OwnedEvents()
			}
			ShareTails(adopted)
			after := 0
			for _, ck := range adopted {
				after += ck.OwnedEvents()
			}
			if after*2 > before {
				t.Fatalf("re-sharing a decoded schedule saved too little: owned %d -> %d", before, after)
			}

			eng := mk()
			n1 := netID(t, eng.Flat(), "n1")
			for i, ck := range adopted {
				if i > 0 && ck.OwnedEvents() == ck.QueuedEvents() {
					t.Fatalf("checkpoint %d shares no tail — the straddling restore is not exercised", i)
				}
				if err := eng.Restore(ck); err != nil {
					t.Fatal(err)
				}
				if !eng.MatchesCheckpoint(plain[i]) {
					t.Fatalf("checkpoint %d: restore from the decoded, re-shared form does not match the original", i)
				}
				// Pollute a tail that consumes queue entries on both sides of
				// the head/tail boundary, then repair through the delta path.
				eng.ScheduleForce(ck.TimePS+100, n1, logic.L1)
				eng.ScheduleRelease(ck.TimePS+700, n1)
				if err := eng.Run(last * period); err != nil {
					t.Fatal(err)
				}
				if err := eng.RestoreDelta(ck); err != nil {
					t.Fatal(err)
				}
				if !eng.MatchesCheckpoint(plain[i]) {
					t.Fatalf("checkpoint %d: delta restore from the decoded, re-shared form does not match the original", i)
				}
				// A clean resume must land exactly on the next snapshot.
				if i+1 < len(plain) {
					if err := eng.Run(plain[i+1].TimePS); err != nil {
						t.Fatal(err)
					}
					if !eng.MatchesCheckpoint(plain[i+1]) {
						t.Fatalf("clean resume from decoded checkpoint %d does not reach checkpoint %d", i, i+1)
					}
				}
			}
		})
	}
}
