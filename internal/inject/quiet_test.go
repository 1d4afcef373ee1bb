package inject

import (
	"slices"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/riscv"
	"repro/internal/socgen"
)

// TestQuietProofAgrees pins the quiet rule on EventSim campaigns of SoC1
// and SoC5 under two seeds: every verdict equals the cold replay's, the
// rule both retires runs and jumps, a campaign adopting the same golden
// from its artifact reaches identical injections with identical eval
// counts, and the change log its replay rebuilds equals the one the golden
// run recorded, offsets included. Four workers share each campaign's log,
// and the adopted campaign's first proofs race to rebuild it.
func TestQuietProofAgrees(t *testing.T) {
	var proved, jumps uint64
	var wall time.Duration
	for _, soc := range []int{1, 5} {
		for _, seed := range []uint64{7, 8} {
			opts := testOptions()
			opts.Seed, opts.Workers = seed, 4
			warm := prep(t, soc, opts)
			if err := warm.Campaign.Run(warm.Result); err != nil {
				t.Fatal(err)
			}
			coldOpts := opts
			coldOpts.ColdStart = true
			cold := prep(t, soc, coldOpts)
			if err := cold.Campaign.Run(cold.Result); err != nil {
				t.Fatal(err)
			}
			assertResultsIdentical(t, "quiet-warm-vs-cold", cold.Result, warm.Result)
			proved += warm.Campaign.tally.proved.Load()
			jumps += warm.Campaign.tally.jumps.Load()
			wall += time.Duration(warm.Campaign.tally.wall.Load())

			blob, err := warm.Campaign.EncodeGolden(warm.Result.GoldenEvals)
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := socgen.ConfigByIndex(soc)
			if err != nil {
				t.Fatal(err)
			}
			adopted, err := PrepareSoCFromGolden(cfg, riscv.MemcpyProgram(8), fault.DefaultDB(), opts, blob)
			if err != nil {
				t.Fatal(err)
			}
			if adopted.Campaign.glog != nil {
				t.Fatal("an adopted golden has a change log before any run needs one")
			}
			if err := adopted.Campaign.Run(adopted.Result); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(adopted.Result.Injections, warm.Result.Injections) || adopted.Result.InjectEvals != warm.Result.InjectEvals {
				t.Fatalf("SoC%d seed %d: adopted golden gives %d evals, built golden %d (injections equal: %t)", soc, seed,
					adopted.Result.InjectEvals, warm.Result.InjectEvals, slices.Equal(adopted.Result.Injections, warm.Result.Injections))
			}
			recorded, replayed := warm.Campaign.glog, adopted.Campaign.glog
			if replayed == nil || !slices.Equal(recorded.offs, replayed.offs) || recorded.log.Len() != replayed.log.Len() {
				t.Fatalf("SoC%d seed %d: replayed log differs from the recorded one in length or offsets", soc, seed)
			}
			for i := range recorded.log.Len() {
				rn, rv := recorded.log.Entry(i)
				pn, pv := replayed.log.Entry(i)
				if rn != pn || rv != pv {
					t.Fatalf("SoC%d seed %d: log entry %d recorded (%d, %v), replayed (%d, %v)", soc, seed, i, rn, rv, pn, pv)
				}
			}
		}
	}
	t.Logf("%d runs proved quiet, %d jumps, %v proving", proved, jumps, wall)
	if proved == 0 || jumps == 0 {
		t.Fatalf("%d runs proved quiet, %d jumps; want both > 0", proved, jumps)
	}
}
