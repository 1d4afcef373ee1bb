// Package runstore persists completed campaign shards as an append-only
// JSONL journal keyed by campaign fingerprint. A coordinator (or a local
// sharded run) appends every shard result as it lands; a restarted
// campaign loads the journal, marks the recorded shards done and executes
// only the remainder. Because shard execution is deterministic, replaying
// a journal merges bit-identically to having never crashed.
//
// The journal is crash-tolerant, not transactional: each record is one
// JSON document followed by a newline, written with a single Write call,
// and Replay stops at the first undecodable record — a torn tail from a
// crash mid-append costs at most that one shard, which simply runs again.
package runstore

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"repro/internal/shard"
)

// Record is one journal line: a completed shard bound to its campaign, a
// terminal marker, or a sweep-registration record. A marker lists
// campaign fingerprints whose earlier shard records are no longer needed
// — the coordinator appends one when a sweep reaches a state its journal
// can never serve again (merged and rendered, or explicitly purged).
// Records appended after a marker are live again: a purged campaign that
// is resubmitted journals from scratch. Sweep records make the journal a
// complete description of the coordinator's registry — what was
// submitted, not just which shards landed — which is what lets a warm
// standby rebuild and resume every in-flight sweep from the file alone.
type Record struct {
	Fingerprint string         `json:"fingerprint,omitempty"`
	Partial     *shard.Partial `json:"partial,omitempty"`
	Terminal    []string       `json:"terminal,omitempty"`
	Sweep       *SweepRecord   `json:"sweep,omitempty"`
}

// SweepStateRunning is the one sweep-record state with a future: records
// whose latest state is anything else (done, cancelled, failed — the
// coordinator echoes its API lifecycle states verbatim) are compacted
// away, and only running sweeps are resubmitted after a restart or
// failover.
const SweepStateRunning = "running"

// SweepRecord registers one submitted sweep in the journal. Params holds
// the declarative grid description (capi's submit payload) as raw JSON —
// runstore stays ignorant of grid rendering — and Single holds a
// single-campaign submission's spec instead. The coordinator appends one
// at submit time and another at each terminal transition; last record
// wins per sweep fingerprint.
type SweepRecord struct {
	Fingerprint string              `json:"fingerprint"`
	Name        string              `json:"name,omitempty"`
	State       string              `json:"state"`
	Params      json.RawMessage     `json:"params,omitempty"`
	Single      *shard.CampaignSpec `json:"single,omitempty"`
}

// Store appends shard completions to a journal file. Safe for concurrent
// use by one process; cross-process appends are not coordinated — one
// coordinator owns a journal.
type Store struct {
	mu   sync.Mutex
	f    *os.File
	path string
	m    *Metrics
	// openCompacted remembers whether Open's compaction rewrote the file,
	// so SetMetrics can count it (metrics attach after Open returns).
	openCompacted bool
}

// SetMetrics attaches obs instrumentation to the store; the compaction
// Open already performed (if any) is counted retroactively. Pass nil to
// detach.
func (s *Store) SetMetrics(m *Metrics) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m = m
	if m != nil && s.openCompacted {
		m.Compactions.Inc()
		s.openCompacted = false
	}
}

// Open opens (creating if needed) a journal for appending. Any torn
// tail — the partial record of an append interrupted by a crash — is
// truncated first: appending after garbage would otherwise hide every
// subsequent record from Replay (which stops at the first undecodable
// byte), silently losing the work of a long-lived
// coordinator that survives its own crash-restart. The journal is then
// compacted: shard records covered by a later terminal marker, records
// superseded by a later record of the same (campaign, range), and the
// markers themselves are rewritten away — a long-lived coordinator's
// journal holds only the shards that could still resume something.
func Open(path string) (*Store, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runstore: %v", err)
	}
	if err := truncateTornTail(f, path); err != nil {
		f.Close()
		return nil, err
	}
	changed, err := compactFile(path)
	if err != nil {
		f.Close()
		return nil, err
	}
	if changed {
		// The compaction replaced the file; the append handle must follow.
		f.Close()
		if f, err = os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644); err != nil {
			return nil, fmt.Errorf("runstore: %v", err)
		}
	}
	return &Store{f: f, path: path, openCompacted: changed}, nil
}

// dedupeKey identifies a shard record for supersession: the replay fold
// keys partials by (campaign, plan range) with last-record-wins, so
// earlier records under the same key are dead weight compaction may drop.
func dedupeKey(fp string, p *shard.Partial) string {
	return fmt.Sprintf("%s#%d-%d", fp, p.Start, p.End)
}

// compactFile rewrites the journal without its dead records and reports
// whether anything changed. Dead are: shard records of campaigns a later
// terminal marker covers, shard records superseded by a later record of
// the same (campaign, plan range), and every marker (markers only exist
// to kill earlier records; once those are gone the marker is too).
// Records appended after a marker are live. The rewrite goes through a
// temp file renamed into place, so a crash mid-compaction leaves either
// the old or the new journal, never a torn one.
func compactFile(path string) (bool, error) {
	in, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return false, nil
		}
		return false, fmt.Errorf("runstore: %v", err)
	}
	var dead []bool
	liveByFP := map[string][]int{}
	lastByKey := map[string]int{}
	type sweepAt struct {
		idx   int
		state string
	}
	lastSweep := map[string]sweepAt{}
	dec := json.NewDecoder(in)
	for i := 0; ; i++ {
		var rec Record
		if err := dec.Decode(&rec); err != nil {
			break
		}
		dead = append(dead, false)
		if len(rec.Terminal) > 0 {
			dead[i] = true
			for _, fp := range rec.Terminal {
				for _, j := range liveByFP[fp] {
					dead[j] = true
				}
				delete(liveByFP, fp)
			}
			continue
		}
		if rec.Sweep != nil {
			// Last sweep record per sweep fingerprint wins; earlier ones are
			// dead, and a terminally-stated winner dies below.
			if prev, ok := lastSweep[rec.Sweep.Fingerprint]; ok {
				dead[prev.idx] = true
			}
			lastSweep[rec.Sweep.Fingerprint] = sweepAt{idx: i, state: rec.Sweep.State}
			continue
		}
		if rec.Partial == nil {
			dead[i] = true // defensive: decodable but empty record
			continue
		}
		key := dedupeKey(rec.Fingerprint, rec.Partial)
		if j, ok := lastByKey[key]; ok {
			dead[j] = true
		}
		lastByKey[key] = i
		liveByFP[rec.Fingerprint] = append(liveByFP[rec.Fingerprint], i)
	}
	in.Close()
	for _, s := range lastSweep {
		if s.state != SweepStateRunning {
			dead[s.idx] = true
		}
	}
	anyDead := false
	for _, d := range dead {
		anyDead = anyDead || d
	}
	if !anyDead {
		return false, nil
	}
	in, err = os.Open(path)
	if err != nil {
		return false, fmt.Errorf("runstore: %v", err)
	}
	defer in.Close()
	tmpPath := path + ".compact"
	out, err := os.Create(tmpPath)
	if err != nil {
		return false, fmt.Errorf("runstore: %v", err)
	}
	defer os.Remove(tmpPath)
	dec = json.NewDecoder(in)
	for i := 0; i < len(dead); i++ {
		var rec Record
		if err := dec.Decode(&rec); err != nil {
			break
		}
		if dead[i] {
			continue
		}
		line, err := json.Marshal(rec)
		if err != nil {
			out.Close()
			return false, fmt.Errorf("runstore: re-encoding record %d: %v", i, err)
		}
		if _, err := out.Write(append(line, '\n')); err != nil {
			out.Close()
			return false, fmt.Errorf("runstore: %v", err)
		}
	}
	if err := out.Sync(); err != nil {
		out.Close()
		return false, fmt.Errorf("runstore: %v", err)
	}
	if err := out.Close(); err != nil {
		return false, fmt.Errorf("runstore: %v", err)
	}
	if err := os.Rename(tmpPath, path); err != nil {
		return false, fmt.Errorf("runstore: %v", err)
	}
	return true, nil
}

// truncateTornTail scans the journal and cuts everything after the last
// decodable record (and its trailing newline). A fully garbled file
// truncates to empty — the journal then behaves like a fresh one.
func truncateTornTail(f *os.File, path string) error {
	r, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("runstore: %v", err)
	}
	defer r.Close()
	size, err := r.Seek(0, 2)
	if err != nil {
		return fmt.Errorf("runstore: %v", err)
	}
	if _, err := r.Seek(0, 0); err != nil {
		return fmt.Errorf("runstore: %v", err)
	}
	dec := json.NewDecoder(r)
	var good int64
	for {
		var rec Record
		if err := dec.Decode(&rec); err != nil {
			break
		}
		good = dec.InputOffset()
	}
	// Keep the record separator so the journal stays one-record-per-line.
	if good < size {
		one := make([]byte, 1)
		if n, _ := r.ReadAt(one, good); n == 1 && one[0] == '\n' {
			good++
		}
	}
	if good == size {
		return nil
	}
	if err := f.Truncate(good); err != nil {
		return fmt.Errorf("runstore: truncating torn tail: %v", err)
	}
	return nil
}

// Path returns the journal's file path.
func (s *Store) Path() string { return s.path }

// Append journals one completed shard. The record is flushed to the OS
// before Append returns, so a crash immediately after a shard completes
// loses nothing.
func (s *Store) Append(fingerprint string, p *shard.Partial) error {
	if p == nil {
		return fmt.Errorf("runstore: nil partial")
	}
	return s.append(Record{Fingerprint: fingerprint, Partial: p})
}

func (s *Store) append(rec Record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("runstore: encoding record: %v", err)
	}
	line = append(line, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.f.Write(line); err != nil {
		return fmt.Errorf("runstore: appending record: %v", err)
	}
	if s.m != nil {
		s.m.Appends.Inc()
	}
	return s.f.Sync()
}

// AppendSweep journals a sweep-registration record: the coordinator
// appends one when a sweep is submitted (state running) and another at
// each terminal transition. Last record per sweep fingerprint wins on
// load; non-running winners are compacted away at the next Open.
func (s *Store) AppendSweep(rec SweepRecord) error {
	if rec.Fingerprint == "" {
		return fmt.Errorf("runstore: sweep record without fingerprint")
	}
	return s.append(Record{Sweep: &rec})
}

// MarkTerminal appends a terminal marker: the named campaigns' earlier
// shard records are dead — loads skip them immediately, and the next Open
// compacts them out of the file. The coordinator calls this when a sweep
// reaches a state its journaled shards can never serve again.
func (s *Store) MarkTerminal(fingerprints []string) error {
	if len(fingerprints) == 0 {
		return nil
	}
	return s.append(Record{Terminal: fingerprints})
}

// Purge is MarkTerminal plus an eager in-place compaction: the named
// campaigns' records are gone from disk when Purge returns, not merely at
// the next Open. This is what DELETE /v1/sweeps/{fp}?purge=1 rides.
func (s *Store) Purge(fingerprints []string) error {
	if err := s.MarkTerminal(fingerprints); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	changed, err := compactFile(s.path)
	if err != nil {
		return err
	}
	if changed {
		f, err := os.OpenFile(s.path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("runstore: %v", err)
		}
		s.f.Close()
		s.f = f
		if s.m != nil {
			s.m.Compactions.Inc()
		}
	}
	return nil
}

// Close closes the journal file.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Close()
}

// Fold is the journal's one replay: records applied in file order yield
// the state a coordinator resumes from — at a restart and at a standby's
// takeover alike. The zero value is an empty journal.
type Fold struct {
	// Partials holds every restorable shard result, by campaign and plan
	// range. Last record wins — deterministic execution makes duplicates
	// equal, and an audit correction appended after a wrong original must
	// supersede it.
	Partials shard.MemPartials
	// Dropped counts records whose partial failed its integrity checksum
	// (bytes damaged at rest, or a torn-then-overwritten write). They are
	// skipped: the shard simply re-simulates, which is always correct.
	Dropped int

	sweeps map[string]SweepRecord
	order  []string
}

// apply folds one record in.
func (f *Fold) apply(rec Record) {
	switch {
	case len(rec.Terminal) > 0:
		// A terminal marker kills everything recorded so far for those
		// campaigns; records appended after it are live again.
		for _, fp := range rec.Terminal {
			delete(f.Partials, fp)
		}
	case rec.Sweep != nil:
		if f.sweeps == nil {
			f.sweeps = map[string]SweepRecord{}
		}
		if _, seen := f.sweeps[rec.Sweep.Fingerprint]; !seen {
			f.order = append(f.order, rec.Sweep.Fingerprint)
		}
		f.sweeps[rec.Sweep.Fingerprint] = *rec.Sweep
	case rec.Partial != nil:
		if rec.Partial.Verify() != nil {
			f.Dropped++
			return
		}
		if f.Partials == nil {
			f.Partials = shard.MemPartials{}
		}
		f.Partials.PutPartial(rec.Fingerprint, rec.Partial)
	}
}

// Sweeps returns the latest registration record of every sweep the
// journal mentions, in first-submission order — the order a restarted or
// failed-over coordinator resubmits them in, so campaign routing
// priority survives the restart.
func (f *Fold) Sweeps() []SweepRecord {
	out := make([]SweepRecord, 0, len(f.order))
	for _, fp := range f.order {
		out = append(out, f.sweeps[fp])
	}
	return out
}

// Replay reads a journal into a Fold. One file holds the shards of every
// campaign in a grid, each namespaced by its fingerprint, so a restarted
// coordinator resumes all of them from a single pass. A missing file is
// an empty journal. A record that fails to decode ends the replay
// silently: it is the expected torn tail of a crashed append, and
// everything before it is intact.
func Replay(path string) (*Fold, error) {
	f := &Fold{Partials: shard.MemPartials{}}
	in, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return f, nil
		}
		return nil, fmt.Errorf("runstore: %v", err)
	}
	defer in.Close()
	dec := json.NewDecoder(in)
	for {
		var rec Record
		if err := dec.Decode(&rec); err != nil {
			return f, nil
		}
		f.apply(rec)
	}
}

// LoadAll replays a journal and returns just the shard results: every
// restorable partial, grouped by campaign fingerprint, and the count of
// records dropped for failing their integrity checksum.
func LoadAll(path string) (all shard.MemPartials, dropped int, err error) {
	f, err := Replay(path)
	if err != nil {
		return nil, 0, err
	}
	return f.Partials, f.Dropped, nil
}

// CountAny reports how many distinct restorable shards the journal
// records for any of the given fingerprints — the existence probe a
// sweep CLI uses to refuse silently double-running a journaled grid.
// Terminal-marked and duplicate records are excluded, so the count
// agrees with what Replay would restore. Like Count it only decodes each
// record's identity, never the injections.
func CountAny(path string, fingerprints map[string]bool) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("runstore: %v", err)
	}
	defer f.Close()
	perFP := map[string]map[[2]int]bool{}
	dec := json.NewDecoder(f)
	for {
		var rec struct {
			Fingerprint string `json:"fingerprint"`
			Partial     *struct {
				Start int `json:"start"`
				End   int `json:"end"`
			} `json:"partial"`
			Terminal []string `json:"terminal"`
		}
		if err := dec.Decode(&rec); err != nil {
			break // EOF or torn tail, same as Replay
		}
		if len(rec.Terminal) > 0 {
			// Marked-terminal records no longer resume anything; probing
			// must agree with what Replay would restore.
			for _, fp := range rec.Terminal {
				delete(perFP, fp)
			}
			continue
		}
		if rec.Partial == nil || !fingerprints[rec.Fingerprint] {
			continue
		}
		// Dedupe by plan range exactly as the replay fold does (last record
		// wins there; for counting, first seen is equivalent), so the probe
		// never reports more records than are restorable.
		set := perFP[rec.Fingerprint]
		if set == nil {
			set = map[[2]int]bool{}
			perFP[rec.Fingerprint] = set
		}
		set[[2]int{rec.Partial.Start, rec.Partial.End}] = true
	}
	n := 0
	for _, set := range perFP {
		n += len(set)
	}
	return n, nil
}

// Count reports how many journal records carry the fingerprint — the
// cheap existence probe CLI validation uses. Like CountAny it never
// decodes the partials themselves, so probing a journal of thousands of
// injections per shard costs only a token scan.
func Count(path, fingerprint string) (int, error) {
	return CountAny(path, map[string]bool{fingerprint: true})
}
