package runstore

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
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

// damagedCold is stampedCold with one verdict's time changed after
// stamping: it decodes, but fails its checksum.
var damagedCold = strings.Replace(stampedCold, `"time_ps":24100`, `"time_ps":24101`, 1)

// FuzzReplay feeds arbitrary bytes to the journal readers. Replay must
// never panic, and every partial it keeps that carries a checksum must
// re-encode to bytes whose Sum equals that checksum. The restore state
// must match a record-by-record reference; socfault's refusal count must
// equal the shards Replay restores; and Open — its own fold and the file
// it leaves — and a Purge of fuzzer-chosen campaigns (bit i of purge picks
// the i-th in sorted order, bit 7 one the journal never names) must
// restore the same partials and running sweeps, less the purged campaigns.
func FuzzReplay(f *testing.F) {
	f.Add([]byte(stampedFull+"\n"+stampedCold+"\n"), uint8(0))
	f.Add([]byte(stampedCold+"\n"+stampedFull), uint8(1))
	f.Add([]byte(strings.Join([]string{
		stampedFull, damagedCold, stampedCold, damagedCold,
		`{"sweep":{"fingerprint":"s1","name":"first","state":"running"}}`,
		`{"sweep":{"fingerprint":"s2","state":"running"}}`,
		`{"sweep":{"fingerprint":"s1","state":"done"}}`,
		`{"sweep":{"fingerprint":"s1","name":"again","state":"running"}}`,
		`{"fingerprint":"beef","partial":{"index":0,"start":0,"end":1}}`,
		`{"terminal":["beef"]}`,
		`{"fingerprint":"beef","partial":{"index":1,"start":1,"end":2}}`,
		`{"fingerprint":"c0ffee","partial":{"index":0,"start":0,"end":2,"injections":"torn"}}`,
		stampedFull,
	}, "\n")+"\n"), uint8(0x83))
	f.Fuzz(func(t *testing.T, raw []byte, purge uint8) {
		path := writeJournal(t, raw)
		fold, err := Replay(path)
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

		ref := restorable(raw)
		if len(fold.Partials) != len(ref) {
			t.Fatalf("replay restores %d campaigns, the reference %d", len(fold.Partials), len(ref))
		}
		var fps []string
		want := 0
		for fp, ranges := range ref {
			fps = append(fps, fp)
			want += len(ranges)
			for _, p := range fold.Partials[fp] {
				if !ranges[[2]int{p.Start, p.End}] {
					t.Fatalf("campaign %s: replay restores [%d,%d), the reference does not", fp, p.Start, p.End)
				}
			}
			if len(fold.Partials[fp]) != len(ranges) {
				t.Fatalf("campaign %s: replay restores %d shards, the reference %d", fp, len(fold.Partials[fp]), len(ranges))
			}
		}
		slices.Sort(fps)
		if n, err := restored(path, fps...); err != nil || n != want {
			t.Fatalf("refusal count %d (err %v), replay restores %d shards", n, err, want)
		}

		st, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if st.Fold().Dropped != fold.Dropped {
			t.Fatalf("Open dropped %d records, Replay %d", st.Fold().Dropped, fold.Dropped)
		}
		sameRestore(t, "Open's fold", fold, st.Fold())
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		opened, err := Replay(path)
		if err != nil {
			t.Fatal(err)
		}
		sameRestore(t, "replay after Open", fold, opened)

		var chosen []string
		for i, fp := range fps {
			if i < 7 && purge&(1<<i) != 0 {
				chosen = append(chosen, fp)
			}
		}
		if purge&0x80 != 0 {
			chosen = append(chosen, "never-journaled")
		}
		if st, err = Open(path); err != nil {
			t.Fatal(err)
		}
		if err := st.Purge(chosen); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		purged, err := Replay(path)
		if err != nil {
			t.Fatal(err)
		}
		kept := *fold
		kept.Partials = maps.Clone(fold.Partials)
		for _, fp := range chosen {
			delete(kept.Partials, fp)
		}
		sameRestore(t, "replay after Purge", &kept, purged)
	})
}

// restorable is the reference restore rule, decoded record by record on
// its own: per campaign, the plan ranges of the records that pass their
// checksum and no later terminal marker names, up to the first record
// that does not decode.
func restorable(raw []byte) map[string]map[[2]int]bool {
	out := map[string]map[[2]int]bool{}
	dec := json.NewDecoder(bytes.NewReader(raw))
	for {
		var rec Record
		if dec.Decode(&rec) != nil {
			return out
		}
		switch {
		case len(rec.Terminal) > 0:
			for _, fp := range rec.Terminal {
				delete(out, fp)
			}
		case rec.Sweep != nil:
		case rec.Partial != nil && rec.Partial.Verify() == nil:
			if out[rec.Fingerprint] == nil {
				out[rec.Fingerprint] = map[[2]int]bool{}
			}
			out[rec.Fingerprint][[2]int{rec.Partial.Start, rec.Partial.End}] = true
		}
	}
}

// sameRestore fails the test unless got restores what want does: the same
// partials, and the same running sweeps in the same order.
func sameRestore(t *testing.T, what string, want, got *Fold) {
	t.Helper()
	if !reflect.DeepEqual(want.Partials, got.Partials) {
		t.Fatalf("%s restores other partials than the journal's replay", what)
	}
	running := func(f *Fold) (out []SweepRecord) {
		for _, sw := range f.Sweeps() {
			if sw.State == SweepStateRunning {
				out = append(out, sw)
			}
		}
		return out
	}
	if w, g := running(want), running(got); !reflect.DeepEqual(w, g) {
		t.Fatalf("%s has running sweeps %+v, the journal's replay %+v", what, g, w)
	}
}

// sweepSingle is a journaled single-campaign sweep registration whose
// spec sets every campaign parameter, omitempty tail included. A
// restarted coordinator resubmits the spec it decodes from this line, so
// its bytes must survive a decode and re-append unchanged.
const sweepSingle = `{"sweep":{"fingerprint":"5ca1ab1e","name":"single","state":"running","single":{"soc":4,"workload":"crc","engine":"LevelSim","let":60.5,"flux":2500000000,"exposure_s":8e-10,"kn":9,"ln":5,"sample_frac":0.35,"min_per_cluster":4,"seed":17,"cluster_seed":29,"cold_start":true,"compare_vcd":true}}}`

// TestSweepRecordSingleShape replays a sweep record carrying Single and
// appends it again: the journal line must come back byte for byte.
func TestSweepRecordSingleShape(t *testing.T) {
	fold, err := Replay(writeJournal(t, []byte(sweepSingle+"\n")))
	if err != nil {
		t.Fatal(err)
	}
	sweeps := fold.Sweeps()
	if len(sweeps) != 1 || sweeps[0].Single == nil {
		t.Fatalf("replay gave sweeps %+v, want one carrying Single", sweeps)
	}
	out := filepath.Join(t.TempDir(), "again.jsonl")
	s, err := Open(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendSweep(sweeps[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if want := sweepSingle + "\n"; string(got) != want {
		t.Fatalf("re-appended sweep record differs:\n got %s\nwant %s", got, want)
	}
}
