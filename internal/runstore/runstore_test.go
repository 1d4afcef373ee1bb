package runstore

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/inject"
	"repro/internal/shard"
)

func stubPartial(index, start, end int) *shard.Partial {
	p := &shard.Partial{Index: index, Start: start, End: end}
	for i := start; i < end; i++ {
		p.Injections = append(p.Injections, inject.Injection{CellID: i, Path: "stub", TimePS: uint64(i), SoftError: i%2 == 0})
	}
	return p
}

// byIndex re-keys one campaign's replayed partials (held by plan range)
// by shard index, the handle these tests name shards by.
func byIndex[K comparable](held map[K]*shard.Partial) map[int]*shard.Partial {
	out := make(map[int]*shard.Partial, len(held))
	for _, p := range held {
		out[p.Index] = p
	}
	return out
}

// Load replays a journal and returns one campaign's shards by index.
func Load(path, fingerprint string) (map[int]*shard.Partial, error) {
	all, _, err := LoadAll(path)
	return byIndex(all[fingerprint]), err
}

// LoadSweeps replays a journal and returns its sweep registry.
func LoadSweeps(path string) ([]SweepRecord, error) {
	f, err := Replay(path)
	if err != nil {
		return nil, err
	}
	return f.Sweeps(), nil
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []*shard.Partial{stubPartial(0, 0, 3), stubPartial(2, 6, 9)}
	for _, p := range want {
		if err := st.Append("fp-a", p); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Append("fp-b", stubPartial(1, 3, 6)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := Load(path, "fp-a")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("loaded %d shards for fp-a, want 2", len(got))
	}
	for _, p := range want {
		g, ok := got[p.Index]
		if !ok {
			t.Fatalf("shard %d missing", p.Index)
		}
		if g.Start != p.Start || g.End != p.End || len(g.Injections) != len(p.Injections) {
			t.Fatalf("shard %d loaded as %+v", p.Index, g)
		}
		for i := range g.Injections {
			if g.Injections[i] != p.Injections[i] {
				t.Fatalf("shard %d injection %d differs: %+v vs %+v", p.Index, i, g.Injections[i], p.Injections[i])
			}
		}
	}
	if n, err := Count(path, "fp-b"); err != nil || n != 1 {
		t.Fatalf("Count(fp-b) = %d, %v; want 1", n, err)
	}
	if n, err := Count(path, "fp-c"); err != nil || n != 0 {
		t.Fatalf("Count(fp-c) = %d, %v; want 0", n, err)
	}
}

// TestLoadAllDropsCorruptRecords pins the replay leg of the integrity
// chain: a journal record that decodes fine but whose payload no longer
// matches its stamped checksum — bytes damaged at rest — is skipped and
// counted, never handed back to the caller, while a later clean record
// for the same shard still supersedes (last record wins). The dropped
// shard simply re-simulates.
func TestLoadAllDropsCorruptRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	clean := stubPartial(0, 0, 3)
	if err := clean.Stamp(); err != nil {
		t.Fatal(err)
	}
	if err := st.Append("fp-a", clean); err != nil {
		t.Fatal(err)
	}
	// A syntactically valid record whose payload was mutated after
	// stamping: the checksum no longer covers the bytes on disk.
	damaged := stubPartial(1, 3, 6)
	if err := damaged.Stamp(); err != nil {
		t.Fatal(err)
	}
	damaged.Injections[0].TimePS += 500
	if err := st.Append("fp-a", damaged); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	all, dropped, err := LoadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 1 {
		t.Fatalf("LoadAll dropped %d records, want 1", dropped)
	}
	got := byIndex(all["fp-a"])
	if len(got) != 1 || got[0] == nil {
		t.Fatalf("loaded %v, want only the intact shard 0", got)
	}
	if _, ok := got[1]; ok {
		t.Fatal("corrupt record handed back to the caller")
	}
	// A clean re-append of the re-simulated shard is loaded normally —
	// the append-only correction path audit replacement also uses.
	st, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	redo := stubPartial(1, 3, 6)
	if err := redo.Stamp(); err != nil {
		t.Fatal(err)
	}
	if err := st.Append("fp-a", redo); err != nil {
		t.Fatal(err)
	}
	st.Close()
	all, dropped, err = LoadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 1 {
		t.Fatalf("re-load dropped %d records, want still 1", dropped)
	}
	if p := byIndex(all["fp-a"])[1]; p == nil || p.Verify() != nil {
		t.Fatalf("re-simulated shard not loaded cleanly: %+v", p)
	}
}

// TestLoadAllNamespacesCampaigns pins the sweep journal contract: one
// file holds many campaigns' shards, each group keyed by its fingerprint
// and untouched by the others' records.
func TestLoadAllNamespacesCampaigns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append("fp-a", stubPartial(0, 0, 3)); err != nil {
		t.Fatal(err)
	}
	if err := st.Append("fp-b", stubPartial(0, 0, 5)); err != nil {
		t.Fatal(err)
	}
	if err := st.Append("fp-a", stubPartial(1, 3, 6)); err != nil {
		t.Fatal(err)
	}
	// A re-journaled duplicate: last record wins within its namespace.
	if err := st.Append("fp-b", stubPartial(0, 0, 5)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	all, _, err := LoadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Fatalf("LoadAll found %d campaigns, want 2", len(all))
	}
	if len(all["fp-a"]) != 2 || len(all["fp-b"]) != 1 {
		t.Fatalf("LoadAll grouped %d/%d shards, want 2/1", len(all["fp-a"]), len(all["fp-b"]))
	}
	if p := byIndex(all["fp-a"])[1]; p == nil || p.Start != 3 || p.End != 6 {
		t.Fatalf("fp-a shard 1 loaded as %+v", p)
	}
	if p := byIndex(all["fp-b"])[0]; p == nil || p.End != 5 {
		t.Fatalf("fp-b shard 0 loaded as %+v", p)
	}
	// LoadAll must agree with per-fingerprint Load.
	only, err := Load(path, "fp-a")
	if err != nil {
		t.Fatal(err)
	}
	if len(only) != len(all["fp-a"]) {
		t.Fatalf("Load and LoadAll disagree: %d vs %d shards", len(only), len(all["fp-a"]))
	}

	// fp-b's re-journaled duplicate counts once: the probe agrees with
	// what Load restores, not with the raw record count.
	if n, err := CountAny(path, map[string]bool{"fp-b": true, "fp-z": true}); err != nil || n != 1 {
		t.Fatalf("CountAny = %d, %v; want 1", n, err)
	}
	if n, err := CountAny(path, map[string]bool{"fp-z": true}); err != nil || n != 0 {
		t.Fatalf("CountAny(fp-z) = %d, %v; want 0", n, err)
	}
}

func TestLoadAllMissingFileIsEmpty(t *testing.T) {
	got, _, err := LoadAll(filepath.Join(t.TempDir(), "absent.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("missing journal loaded %d campaigns", len(got))
	}
}

func TestLoadMissingFileIsEmpty(t *testing.T) {
	got, err := Load(filepath.Join(t.TempDir(), "absent.jsonl"), "fp")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("missing journal loaded %d shards", len(got))
	}
}

func TestLoadToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append("fp", stubPartial(0, 0, 2)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: half a record at the end of the file.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"fingerprint":"fp","partial":{"index":1,"st`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got, err := Load(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] == nil {
		t.Fatalf("torn journal loaded %d shards, want the 1 intact one", len(got))
	}
	// The journal must still be appendable after the crash: Open truncates
	// the torn fragment, so records appended by the restarted process are
	// not hidden behind it — the property a long-lived coordinator that
	// survives its own crash-restart depends on.
	st2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if err := st2.Append("fp", stubPartial(1, 2, 4)); err != nil {
		t.Fatal(err)
	}
	got, err = Load(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] == nil || got[1] == nil {
		t.Fatalf("post-crash journal loaded %d shards, want both the pre-crash and post-restart records", len(got))
	}
}

// TestOpenTruncatesGarbageOnlyJournal: a journal whose every byte is
// garbage behaves like a fresh file after Open.
func TestOpenTruncatesGarbageOnlyJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	if err := os.WriteFile(path, []byte("not json at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Append("fp", stubPartial(0, 0, 2)); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("journal after garbage truncation loaded %d shards, want 1", len(got))
	}
}

// TestKillResumeDeterminism is the journal leg of the sharding
// determinism gate: a campaign killed after journaling part of its
// shards, then restarted — journal loaded, finished shards skipped, the
// rest executed — must merge bit-identically to the single-process run,
// on both engines.
func TestKillResumeDeterminism(t *testing.T) {
	cases := []struct {
		engine string
		frac   float64
	}{
		{"EventSim", 0.05},
		{"LevelSim", 0.02},
	}
	for _, tc := range cases {
		t.Run(tc.engine, func(t *testing.T) {
			o := inject.DefaultOptions()
			cs := shard.SpecFromOptions(1, "memcpy", o)
			cs.Engine = tc.engine
			cs.SampleFrac = tc.frac
			cs.MinPer = 2
			cs.Seed = 7
			fp, err := cs.Fingerprint()
			if err != nil {
				t.Fatal(err)
			}

			// Reference: the single-process campaign.
			ref, err := shard.Build(cs)
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.Run.Campaign.Run(ref.Run.Result); err != nil {
				t.Fatal(err)
			}

			// First life: run 2 of 4 shards, journaling each, then "die".
			path := filepath.Join(t.TempDir(), "journal.jsonl")
			b1, err := shard.Build(cs)
			if err != nil {
				t.Fatal(err)
			}
			specs, err := shard.Plan(cs, 4, len(b1.Jobs))
			if err != nil {
				t.Fatal(err)
			}
			st, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, sp := range []shard.Spec{specs[2], specs[0]} {
				p, err := shard.ExecuteOn(b1, sp)
				if err != nil {
					t.Fatal(err)
				}
				if err := st.Append(fp, p); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			// Second life: a fresh process loads the journal, skips the
			// finished shards and executes only the remainder.
			b2, err := shard.Build(cs)
			if err != nil {
				t.Fatal(err)
			}
			done, err := Load(path, fp)
			if err != nil {
				t.Fatal(err)
			}
			if len(done) != 2 {
				t.Fatalf("resume loaded %d shards, want 2", len(done))
			}
			executed := 0
			var partials []*shard.Partial
			for _, sp := range specs {
				if p, ok := done[sp.Index]; ok && p.Covers(sp) {
					partials = append(partials, p)
					continue
				}
				p, err := shard.ExecuteOn(b2, sp)
				if err != nil {
					t.Fatal(err)
				}
				executed++
				partials = append(partials, p)
			}
			if executed != 2 {
				t.Fatalf("resume re-executed %d shards, want 2", executed)
			}
			got, err := shard.Merge(b2, partials)
			if err != nil {
				t.Fatal(err)
			}
			if err := shard.EquivalentResults(ref.Run.Result, got); err != nil {
				t.Fatalf("resumed campaign diverges from single-process: %v", err)
			}
		})
	}
}
