package main

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/runstore"
	"repro/internal/shard"
	"repro/internal/socgen"
	"repro/internal/ssresf"
	"repro/internal/sweep"
)

// TestParseFlagsValidation pins the upfront flag validation: every broken
// flag or combination must fail fast with an actionable message instead
// of panicking deep inside the campaign.
func TestParseFlagsValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the expected error
	}{
		{"bad soc low", []string{"-soc", "0"}, "SoC"},
		{"bad soc high", []string{"-soc", "11"}, "SoC"},
		{"bad engine", []string{"-engine", "Verilator"}, "engine"},
		{"bad workload", []string{"-workload", "quicksort3"}, "workload"},
		{"sample zero", []string{"-sample", "0"}, "sample fraction"},
		{"sample high", []string{"-sample", "1.5"}, "sample fraction"},
		{"negative flux", []string{"-flux", "-1"}, "flux"},
		{"negative ckpt", []string{"-ckpt", "-2"}, "-ckpt"},
		{"zero shards", []string{"-shards", "0"}, "-shards"},
		{"resume without journal", []string{"-resume"}, "-resume needs -journal"},
		{"unknown sweep", []string{"-sweep", "table9"}, "sweep kind"},
		{"submit without sweep", []string{"-submit", "http://h:1"}, "-submit needs -sweep"},
		{"submit with journal", []string{"-sweep", "let", "-submit", "http://h:1", "-journal", "x.jsonl"}, "no effect with -submit"},
		{"submit with shards", []string{"-sweep", "let", "-submit", "http://h:1", "-shards", "4"}, "no effect with -submit"},
		{"submit with ckpt", []string{"-sweep", "let", "-submit", "http://h:1", "-ckpt", "5"}, "no effect with -submit"},
		{"sweep with campaign flag", []string{"-sweep", "let", "-soc", "3"}, "no effect under -sweep"},
		{"sweep with seed flag", []string{"-sweep", "table1", "-seed", "9"}, "no effect under -sweep"},
		{"bad lets", []string{"-sweep", "let", "-lets", "1,x"}, "-lets"},
		{"bad fluxes", []string{"-sweep", "table3", "-fluxes", "zap"}, "-fluxes"},
		{"bad sweep workload", []string{"-sweep", "table1", "-sweep-workload", "quicksort3"}, "workload"},
		{"sweep resume without journal", []string{"-sweep", "let", "-resume"}, "-resume needs -journal"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseFlags(tc.args)
			if err == nil {
				t.Fatalf("args %v accepted", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("args %v: error %q does not mention %q", tc.args, err, tc.want)
			}
		})
	}
}

func TestParseFlagsDefaults(t *testing.T) {
	cfg, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if paper := socgen.TableIConfigs()[0].KN; cfg.spec.KN != paper {
		t.Errorf("default KN %d, want paper value %d", cfg.spec.KN, paper)
	}
	if cfg.shards != 1 || cfg.journal != "" || cfg.resume {
		t.Errorf("sharding defaults wrong: %+v", cfg)
	}
	cfg, err = parseFlags([]string{"-soc", "3", "-kn", "7", "-shards", "4"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.spec.KN != 7 || cfg.spec.SoC != 3 || cfg.shards != 4 {
		t.Errorf("explicit flags lost: %+v", cfg)
	}
}

// TestParseFlagsRefusesStaleJournalWithoutResume covers the footgun of
// re-running a journaled campaign without -resume.
func TestParseFlagsRefusesStaleJournalWithoutResume(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "run.jsonl")
	cfg, err := parseFlags([]string{"-journal", journal})
	if err != nil {
		t.Fatalf("fresh journal path rejected: %v", err)
	}
	st, err := runstore.Open(journal)
	if err != nil {
		t.Fatal(err)
	}
	specFP, err := cfg.spec.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(specFP, &shard.Partial{Index: 0, Start: 0, End: 1}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if _, err := parseFlags([]string{"-journal", journal}); err == nil {
		t.Fatal("journal with recorded shards accepted without -resume")
	}
	if _, err := parseFlags([]string{"-journal", journal, "-resume"}); err != nil {
		t.Fatalf("-resume on recorded journal rejected: %v", err)
	}
	// A journal holding only a different campaign's shards is fine.
	if _, err := parseFlags([]string{"-journal", journal, "-seed", "99"}); err != nil {
		t.Fatalf("journal of a different campaign rejected: %v", err)
	}
}

// TestParseFlagsSweepGrid pins the sweep mode's flag surface: a grid
// parsed here enumerates exactly the fingerprints a campaignd sweep
// coordinator serves for the same flags (sweep.GridParamsFlags is the shared
// registration point), which is what lets one journal resume under
// either tool.
func TestParseFlagsSweepGrid(t *testing.T) {
	cfg, err := parseFlags([]string{"-sweep", "let", "-lets", "1,37", "-quick", "-shards", "3"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.grid == nil {
		t.Fatal("sweep flags parsed without a grid")
	}
	if got := len(cfg.grid.Spec.Items); got != 2 {
		t.Fatalf("LET grid enumerates %d campaigns, want 2", got)
	}
	if cfg.shards != 3 {
		t.Fatalf("sweep lost -shards: %+v", cfg)
	}
	ec := ssresf.DefaultExperimentConfig(true)
	wantGrid, err := sweep.LETGrid(ec, 1, []float64{1, 37}, "memcpy")
	if err != nil {
		t.Fatal(err)
	}
	gotFP, err := cfg.grid.Spec.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	wantFP, err := wantGrid.Spec.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if gotFP != wantFP {
		t.Fatal("socfault sweep grid diverges from the shared constructor")
	}
	// A non-sweep parse leaves the grid nil.
	cfg, err = parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.grid != nil {
		t.Fatal("default parse produced a grid")
	}
}

// TestParseFlagsRefusesStaleSweepJournal extends the stale-journal
// footgun check to grids: any member campaign's shards in the journal
// demand -resume.
func TestParseFlagsRefusesStaleSweepJournal(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "grid.jsonl")
	args := []string{"-sweep", "let", "-lets", "1,37", "-quick", "-journal", journal}
	cfg, err := parseFlags(args)
	if err != nil {
		t.Fatalf("fresh sweep journal rejected: %v", err)
	}
	st, err := runstore.Open(journal)
	if err != nil {
		t.Fatal(err)
	}
	// Record a shard of the grid's second campaign.
	fp, err := cfg.grid.Spec.Items[1].Campaign.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(fp, &shard.Partial{Index: 0, Start: 0, End: 1}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if _, err := parseFlags(args); err == nil {
		t.Fatal("journaled sweep accepted without -resume")
	}
	if _, err := parseFlags(append(args, "-resume")); err != nil {
		t.Fatalf("-resume on journaled sweep rejected: %v", err)
	}
	// A journal holding only an unrelated grid's shards is fine.
	if _, err := parseFlags([]string{"-sweep", "let", "-lets", "100", "-quick", "-journal", journal}); err != nil {
		t.Fatalf("journal of a different grid rejected: %v", err)
	}
}

// TestShardCountExceedingInjections pins the clear error for a plan that
// cannot feed every shard (the old code would only fail deep inside the
// campaign, if at all).
func TestShardCountExceedingInjections(t *testing.T) {
	cfg, err := parseFlags([]string{"-sample", "0.02", "-shards", "100000"})
	if err != nil {
		t.Fatal(err)
	}
	err = run(cfg)
	if err == nil {
		t.Fatal("absurd shard count accepted")
	}
	if !strings.Contains(err.Error(), "exceeds the campaign's") {
		t.Fatalf("error %q does not explain the shard/injection mismatch", err)
	}
}
