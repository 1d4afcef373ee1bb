package runstore

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// journalLines reads the raw journal so tests can assert on its physical
// shape, not just its loaded view.
func journalLines(t *testing.T, path string) []string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := strings.TrimRight(string(b), "\n")
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}

// TestTerminalMarkerHidesRecords: a marker kills the named campaigns'
// earlier records for every reader, while later appends for the same
// campaign are live again (a purged sweep resubmitted journals afresh).
func TestTerminalMarkerHidesRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append("fp-a", stubPartial(0, 0, 3)); err != nil {
		t.Fatal(err)
	}
	if err := st.Append("fp-b", stubPartial(0, 0, 2)); err != nil {
		t.Fatal(err)
	}
	if err := st.MarkTerminal([]string{"fp-a"}); err != nil {
		t.Fatal(err)
	}
	if err := st.Append("fp-a", stubPartial(1, 3, 6)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	all, _, err := LoadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(all["fp-a"]) != 1 || byIndex(all["fp-a"])[1] == nil {
		t.Fatalf("fp-a loaded %d shards, want only the post-marker shard 1: %v", len(all["fp-a"]), all["fp-a"])
	}
	if len(all["fp-b"]) != 1 {
		t.Fatalf("marker for fp-a touched fp-b: %v", all["fp-b"])
	}
	if n, err := Count(path, "fp-a"); err != nil || n != 1 {
		t.Fatalf("Count(fp-a) = %d, %v; want 1 (marker-dead records must not count)", n, err)
	}
}

// TestOpenCompactsMarkedAndSupersededRecords: reopening a journal rewrites
// it without marker-dead records, superseded duplicates, or the markers
// themselves — and the loaded view is unchanged by the rewrite.
func TestOpenCompactsMarkedAndSupersededRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append("fp-a", stubPartial(0, 0, 3)); err != nil {
		t.Fatal(err)
	}
	if err := st.Append("fp-b", stubPartial(0, 0, 2)); err != nil {
		t.Fatal(err)
	}
	// Duplicate of fp-b shard 0 (a journal replay racing a live worker).
	if err := st.Append("fp-b", stubPartial(0, 0, 2)); err != nil {
		t.Fatal(err)
	}
	if err := st.MarkTerminal([]string{"fp-a"}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(journalLines(t, path)); n != 4 {
		t.Fatalf("pre-compaction journal has %d lines, want 4", n)
	}
	before, _, err := LoadAll(path)
	if err != nil {
		t.Fatal(err)
	}

	st, err = Open(path) // compacts
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	lines := journalLines(t, path)
	if len(lines) != 1 {
		t.Fatalf("compacted journal has %d lines, want 1 (only fp-b shard 0):\n%s", len(lines), strings.Join(lines, "\n"))
	}
	if strings.Contains(lines[0], "terminal") || strings.Contains(lines[0], "fp-a") {
		t.Fatalf("compacted journal still carries dead content: %s", lines[0])
	}
	after, _, err := LoadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("compaction changed the loaded view: %d campaigns vs %d", len(after), len(before))
	}
	for fp, shards := range before {
		if len(after[fp]) != len(shards) {
			t.Fatalf("campaign %s: %d shards after compaction, want %d", fp, len(after[fp]), len(shards))
		}
	}
}

// TestPurgeDropsRecordsEagerly: Purge shrinks the file immediately and the
// store stays appendable afterwards.
func TestPurgeDropsRecordsEagerly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append("fp-a", stubPartial(0, 0, 3)); err != nil {
		t.Fatal(err)
	}
	if err := st.Append("fp-b", stubPartial(0, 0, 2)); err != nil {
		t.Fatal(err)
	}
	if err := st.Purge([]string{"fp-a"}); err != nil {
		t.Fatal(err)
	}
	lines := journalLines(t, path)
	if len(lines) != 1 || !strings.Contains(lines[0], "fp-b") {
		t.Fatalf("purged journal = %q, want only fp-b's record", strings.Join(lines, "\n"))
	}
	// The store's append handle must follow the rewritten file.
	if err := st.Append("fp-c", stubPartial(0, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	all, _, err := LoadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 || all["fp-b"] == nil || all["fp-c"] == nil || all["fp-a"] != nil {
		t.Fatalf("post-purge journal loads %v, want fp-b and fp-c only", all)
	}
}

// TestPurgeEmptyAndUnknown: purging nothing or an unknown campaign leaves
// the journal intact.
func TestPurgeEmptyAndUnknown(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append("fp-a", stubPartial(0, 0, 3)); err != nil {
		t.Fatal(err)
	}
	if err := st.Purge(nil); err != nil {
		t.Fatal(err)
	}
	if err := st.Purge([]string{"fp-zzz"}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path, "fp-a")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("fp-a lost records to an unrelated purge: %v", got)
	}
}

// TestCountAnyDedupesAndHonorsMarkers: the probe must agree with Load —
// duplicate (campaign, shard) records count once, marked records not at
// all.
func TestCountAnyDedupesAndHonorsMarkers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append("fp-a", stubPartial(0, 0, 2)); err != nil {
		t.Fatal(err)
	}
	if err := st.Append("fp-a", stubPartial(0, 0, 2)); err != nil { // late duplicate
		t.Fatal(err)
	}
	if err := st.Append("fp-a", stubPartial(1, 2, 4)); err != nil {
		t.Fatal(err)
	}
	if err := st.Append("fp-b", stubPartial(0, 0, 2)); err != nil {
		t.Fatal(err)
	}
	if err := st.MarkTerminal([]string{"fp-b"}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	n, err := CountAny(path, map[string]bool{"fp-a": true, "fp-b": true})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("CountAny = %d, want 2 (fp-a's two distinct shards; duplicate and marked records excluded)", n)
	}
}
