package runstore

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/shard"
)

// Two journal lines exactly as Store.Append writes them for stamped
// partials. stampedFull has every work counter non-zero; stampedCold has
// delta_restores and restore_wall_ns zero, so those omitempty fields are
// absent. The bytes are the Partial's JSON shape, which every integrity
// stamp in every journal and lake blob hashes: renaming, re-tagging or
// reordering a counter changes them.
const (
	stampedFull = `{"fingerprint":"c0ffee","partial":{"index":3,"start":8,"end":10,"injections":[{"cell_id":17,"path":"u_cpu.u_alu.g_3","kind":1,"time_ps":23749,"pulse_ps":92,"cluster":2,"soft_error":true},{"cell_id":40,"path":"u_mem.r_5","kind":0,"time_ps":24100,"cluster":0,"soft_error":false}],"inject_wall_ns":123456789,"inject_evals":25013,"warm_starts":2,"pruned_runs":1,"delta_restores":1,"restore_wall_ns":48211,"checksum":"9ed54e946064ad0241f2ca1006fa957b2d3c583ef59127b050e3c5b43ab743db"}}`
	stampedCold = `{"fingerprint":"c0ffee","partial":{"index":0,"start":0,"end":2,"injections":[{"cell_id":17,"path":"u_cpu.u_alu.g_3","kind":1,"time_ps":23749,"pulse_ps":92,"cluster":2,"soft_error":true},{"cell_id":40,"path":"u_mem.r_5","kind":0,"time_ps":24100,"cluster":0,"soft_error":false}],"inject_wall_ns":98765432,"inject_evals":130022,"warm_starts":2,"pruned_runs":0,"checksum":"467e606e1495326243a03883a75926761fe81f49c23185f7b9061879c6b12c04"}}`
)

// writeJournal writes raw journal bytes to a fresh file and returns its
// path.
func writeJournal(t *testing.T, raw []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "j.jsonl")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestJournalStampShape pins the stamped Partial's bytes: both lines
// replay with nothing dropped, each partial verifies against its stamp,
// and appending the replayed partials again writes the same bytes.
func TestJournalStampShape(t *testing.T) {
	fold, err := Replay(writeJournal(t, []byte(stampedFull+"\n"+stampedCold+"\n")))
	if err != nil {
		t.Fatal(err)
	}
	if fold.Dropped != 0 {
		t.Fatalf("replay dropped %d stamped records", fold.Dropped)
	}
	out := filepath.Join(t.TempDir(), "again.jsonl")
	s, err := Open(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{stampedFull, stampedCold} {
		var rec Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		p := fold.Partials.GetPartial(rec.Fingerprint, rec.Partial.Start, rec.Partial.End)
		if p == nil {
			t.Fatalf("replay lost [%d,%d)", rec.Partial.Start, rec.Partial.End)
		}
		if err := p.Verify(); err != nil {
			t.Fatal(err)
		}
		if err := s.Append(rec.Fingerprint, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if want := stampedFull + "\n" + stampedCold + "\n"; string(got) != want {
		t.Fatalf("re-appended journal differs:\n got %s\nwant %s", got, want)
	}
}

// FuzzReplay feeds arbitrary bytes to Replay as a journal file. Replay
// must never panic, and every partial it keeps that carries a checksum
// must re-encode to bytes whose Sum equals that checksum.
func FuzzReplay(f *testing.F) {
	f.Add([]byte(stampedFull + "\n" + stampedCold + "\n"))
	f.Add([]byte(stampedCold + "\n" + stampedFull))
	f.Fuzz(func(t *testing.T, raw []byte) {
		fold, err := Replay(writeJournal(t, raw))
		if err != nil {
			t.Fatal(err)
		}
		for _, held := range fold.Partials {
			for _, p := range held {
				if p.Checksum == "" {
					continue
				}
				b, err := json.Marshal(p)
				if err != nil {
					t.Fatal(err)
				}
				var again shard.Partial
				if err := json.Unmarshal(b, &again); err != nil {
					t.Fatal(err)
				}
				if sum, err := again.Sum(); err != nil || sum != p.Checksum {
					t.Fatalf("kept partial [%d,%d) re-encodes to sum %s (err %v), stamped %s", p.Start, p.End, sum, err, p.Checksum)
				}
			}
		}
	})
}
