package sim

import (
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/logic"
	"repro/internal/xrand"
)

// monitorChange is one value change of a monitored net.
type monitorChange struct {
	t   uint64
	net int
	v   logic.V
}

// quietCase runs one quiet-proof trial on a random synchronous circuit of
// enable flops, reset flops and memory bits under random stimulus. The
// golden EventSim run records its change log, a checkpoint every cycle
// and the changes of the two outputs. A faulty run restores a mid-run
// checkpoint and flips a random storage cell; at every later checkpoint
// instant whose diff QuietDiff accepts, it proves the diff and checks
// what the proof claims:
//
//   - a proof that reaches the end of the log: every later checkpoint
//     shows the same diff, and no output ever differs from golden;
//   - a proof that fails at entry p: at the last checkpoint k taken at or
//     before p, if k is later, the faulty run and Restore(ck_k) plus Patch
//     match each other both ways.
//
// It returns how many proofs of a nonempty diff reached the end and how
// many jump targets it checked.
func quietCase(t *testing.T, seed uint64) (proved, jumps int) {
	rng := xrand.New(seed)
	fl := randomSyncDesignOf(rng, []string{"DFFRX1", "DFFEX1", "SRAMBITX1"})
	const period, cycles = 4000, 12
	var sts []Stimulus
	var clk int
	var outs []int
	for _, n := range fl.Nets {
		switch {
		case n.IsPO:
			outs = append(outs, n.ID)
		case !n.IsPI:
		case n.Name == "clk":
			clk = n.ID
		case n.Name == "rstn":
			sts = append(sts, Stimulus{Time: 0, Net: n.ID, Val: logic.L0}, Stimulus{Time: period / 2, Net: n.ID, Val: logic.L1})
		default:
			sts = append(sts, Stimulus{Time: 0, Net: n.ID, Val: logic.FromBool(rng.Intn(2) == 1)})
			for k := 1; k < cycles; k++ {
				if rng.Intn(2) == 0 {
					tm := uint64(k)*period + uint64(rng.Intn(period))
					sts = append(sts, Stimulus{Time: tm, Net: n.ID, Val: logic.FromBool(rng.Intn(2) == 1)})
				}
			}
		}
	}
	cold := func() *EventSim {
		e := NewEventSim(fl)
		if err := DriveClock(e, clk, period, period, cycles*period); err != nil {
			t.Fatal(err)
		}
		if err := ApplyStimuli(e, sts); err != nil {
			t.Fatal(err)
		}
		return e
	}
	watch := func(e *EventSim, log *[]monitorChange) {
		for _, n := range outs {
			e.OnNetChange(n, func(t uint64, v logic.V) { *log = append(*log, monitorChange{t, n, v}) })
		}
	}

	golden := cold()
	log := golden.RecordChanges()
	var goldOut []monitorChange
	watch(golden, &goldOut)
	var cks []*Checkpoint
	var offs, outAt []int
	for k := 1; k < cycles; k++ {
		golden.At(uint64(k)*period+1, func() {
			cks = append(cks, golden.Snapshot())
			offs = append(offs, log.Len())
			outAt = append(outAt, len(goldOut))
		})
	}
	if err := golden.Run(cycles * period); err != nil {
		t.Fatal(err)
	}
	log.Index()

	seqs := fl.SequentialCells()
	victim := seqs[rng.Intn(len(seqs))]
	start := rng.Intn(len(cks) / 2)
	flipAt := cks[start].TimePS + 1 + uint64(rng.Intn(int(3*period)))
	faulty := NewEventSim(fl)
	if err := faulty.Restore(cks[start]); err != nil {
		t.Fatal(err)
	}
	if err := faulty.ScheduleFlip(flipAt, victim); err != nil {
		t.Fatal(err)
	}
	// Checks due at later checkpoints: the diff a proof that reached the
	// end expects there, and the Restore-plus-Patch state a jump lands on.
	var provedDiff *Diff
	jumpTo := map[int][]Diff{}
	var faultyOut []monitorChange
	outFrom := -1
	for i := start + 1; i < len(cks); i++ {
		if cks[i].TimePS <= flipAt {
			continue
		}
		faulty.At(cks[i].TimePS, func() {
			for _, d := range jumpTo[i] {
				jumped := NewEventSim(fl)
				if err := jumped.Restore(cks[i]); err != nil {
					t.Fatal(err)
				}
				jumped.Patch(d)
				if !faulty.MatchesCheckpoint(jumped.Snapshot()) || !jumped.MatchesCheckpoint(faulty.Snapshot()) {
					t.Fatalf("seed %d: the faulty run at checkpoint %d is not Restore plus Patch of %+v", seed, i, d)
				}
				jumps++
			}
			d, ok := faulty.QuietDiff(cks[i])
			if provedDiff != nil {
				if !ok || !reflect.DeepEqual(d, *provedDiff) {
					t.Fatalf("seed %d: proved quiet with diff %+v, but checkpoint %d shows %+v (storage-only %t)", seed, *provedDiff, i, d, ok)
				}
				return
			}
			if !ok {
				return
			}
			p := log.Prove(cks[i], offs[i], d)
			if p == log.Len() {
				provedDiff, outFrom = &d, outAt[i]
				watch(faulty, &faultyOut)
				if len(d.Cells) > 0 {
					proved++
				}
				return
			}
			if p < offs[i] {
				t.Fatalf("seed %d: proof from offset %d failed at %d", seed, offs[i], p)
			}
			if k := sort.SearchInts(offs, p+1) - 1; k > i {
				jumpTo[k] = append(jumpTo[k], d)
			}
		})
	}
	if err := faulty.Run(cycles * period); err != nil {
		t.Fatal(err)
	}
	if provedDiff != nil {
		quiet := true
		for _, n := range provedDiff.Nets {
			for _, o := range outs {
				quiet = quiet && int(n) != o
			}
		}
		if want := goldOut[outFrom:]; quiet && !slices.Equal(faultyOut, want) {
			t.Fatalf("seed %d: proved quiet, but the outputs changed %v, golden %v", seed, faultyOut, want)
		}
	}
	return proved, jumps
}

// FuzzQuietProof is the quiet-divergence proof's oracle: see quietCase.
func FuzzQuietProof(f *testing.F) {
	for seed := uint64(1); seed <= 64; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) { quietCase(t, seed) })
}

// TestQuietProofFires pins that quietCase's checks are not vacuous: over
// the fuzz seeds, some proofs reach the end of the log and some jump
// targets are checked.
func TestQuietProofFires(t *testing.T) {
	var proved, jumps int
	for seed := uint64(1); seed <= 200; seed++ {
		p, j := quietCase(t, seed)
		proved, jumps = proved+p, jumps+j
	}
	t.Logf("%d proofs reached the end, %d jump targets checked", proved, jumps)
	if proved == 0 || jumps == 0 {
		t.Fatalf("%d proofs reached the end, %d jump targets checked; want both > 0", proved, jumps)
	}
}
