// Package runstore persists completed campaign shards as an append-only
// JSONL journal keyed by campaign fingerprint. A coordinator (or a local
// sharded run) appends every shard result as it lands; a restarted
// campaign loads the journal, marks the recorded shards done and executes
// only the remainder. Because shard execution is deterministic, replaying
// a journal merges bit-identically to having never crashed.
//
// The journal is crash-tolerant, not transactional: each record is one
// JSON document followed by a newline, written with a single Write call,
// and the first record that does not decode ends the journal — a torn
// tail from a crash mid-append costs at most that one shard, which simply
// runs again.
//
// Every read goes through one decode pass (scan) and one liveness rule
// (Fold): the same fold yields what a restart restores and marks which
// records a compaction may drop, so Open, Purge, Replay and LoadAll
// cannot disagree about what the journal holds.
package runstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"
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
	fold *Fold
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

// Open opens (creating if needed) a journal for appending, after reading
// it once: the fold of its records is kept for Fold, so the caller
// restores from the same pass. A torn tail — the partial record of an
// append interrupted by a crash — is cut: appending after garbage would
// otherwise hide every later record from readers, silently losing the
// work of a long-lived coordinator that survives its own crash-restart.
// The records the fold marks dead are then rewritten away, so the journal
// holds only what could still resume something.
func Open(path string) (*Store, error) {
	fold, compacted, err := compact(path)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runstore: %v", err)
	}
	return &Store{f: f, path: path, fold: fold, openCompacted: compacted}, nil
}

// Fold returns the journal as Open read it, before this store appended
// anything: the state a restarted coordinator or a resumed run restores.
func (s *Store) Fold() *Fold { return s.fold }

// compact reads and folds the journal at path, then brings the file in
// line with the fold: rewritten with only its live records when any are
// dead, else cut just past its last record that decodes. The rewrite
// writes the live records' bytes as read, through a temp file renamed into
// place, so a crash mid-compaction leaves either the old or the new
// journal, never a torn one. A missing file is an empty journal.
func compact(path string) (*Fold, bool, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, false, fmt.Errorf("runstore: %v", err)
	}
	fold, lines, end := scan(data)
	if !slices.Contains(fold.dead, true) {
		if end < len(data) {
			if err := os.Truncate(path, int64(end)); err != nil {
				return nil, false, fmt.Errorf("runstore: truncating torn tail: %v", err)
			}
		}
		return fold, false, nil
	}
	// A sweep's latest record takes its first one's place, so the rewrite
	// keeps the first-submission order Sweeps reports.
	for _, sw := range fold.sweeps {
		lines[sw.first] = lines[sw.last]
	}
	live := make([]byte, 0, end)
	for i, line := range lines {
		if !fold.dead[i] {
			live = append(append(live, line...), '\n')
		}
	}
	tmp := path + ".compact"
	out, err := os.Create(tmp)
	if err == nil {
		_, err = out.Write(live)
		if err == nil {
			err = out.Sync()
		}
		if cerr := out.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return nil, false, fmt.Errorf("runstore: compacting: %v", err)
	}
	return fold, true, nil
}

// scan is the journal's one decode pass: it folds the records of data in
// file order up to the first that does not decode, and returns the fold,
// each folded record's bytes (leading whitespace trimmed) and the offset
// just past the last folded record, its newline included.
func scan(data []byte) (f *Fold, lines [][]byte, end int) {
	f = &Fold{Partials: shard.MemPartials{}, sweeps: map[string]sweepAt{}, shards: map[string]map[[2]int][]int{}}
	dec := json.NewDecoder(bytes.NewReader(data))
	for {
		var rec Record
		if dec.Decode(&rec) != nil {
			break
		}
		off := int(dec.InputOffset())
		lines = append(lines, bytes.TrimLeft(data[end:off], " \t\r\n"))
		f.apply(rec)
		end = off
	}
	if end < len(data) && data[end] == '\n' {
		end++
	}
	return f, lines, end
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

// Purge is MarkTerminal plus an eager compaction, the one Open performs:
// the named campaigns' records are gone from disk when Purge returns, not
// merely at the next Open. This is what DELETE /v1/sweeps/{fp}?purge=1
// rides.
func (s *Store) Purge(fingerprints []string) error {
	if err := s.MarkTerminal(fingerprints); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_, compacted, err := compact(s.path)
	if err != nil || !compacted {
		return err
	}
	// The compaction replaced the file; the append handle must follow.
	f, err := os.OpenFile(s.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("runstore: %v", err)
	}
	s.f.Close()
	s.f = f
	if s.m != nil {
		s.m.Compactions.Inc()
	}
	return nil
}

// Close closes the journal file.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Close()
}

// Fold is the journal's one liveness rule: records applied in file order
// yield the state a coordinator resumes from — at a restart and at a
// standby's takeover alike — and mark which records a compaction may
// drop. The zero value is an empty journal.
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

	order  []string
	sweeps map[string]sweepAt
	// dead marks, per record in file order, what a compaction may drop;
	// shards holds, per campaign and plan range, the records a later
	// verified record for that range supersedes.
	dead   []bool
	shards map[string]map[[2]int][]int
}

// sweepAt is a sweep's latest registration record and the positions of
// its first and latest records.
type sweepAt struct {
	rec         SweepRecord
	first, last int
}

// apply folds the next record in. Dead are: every terminal marker (it
// exists only to kill earlier records) and the shard records of the
// campaigns it names; a shard record superseded by a later verified one
// for the same (campaign, range); every sweep record but a sweep's first,
// which carries its latest state and dies once that state is not running;
// and a record of no kind at all. A record that fails its checksum
// restores nothing, but stays on disk until a later record supersedes it.
func (f *Fold) apply(rec Record) {
	i := len(f.dead)
	f.dead = append(f.dead, true)
	switch {
	case len(rec.Terminal) > 0:
		// Records appended after the marker are live again.
		for _, fp := range rec.Terminal {
			delete(f.Partials, fp)
			for _, at := range f.shards[fp] {
				for _, j := range at {
					f.dead[j] = true
				}
			}
			delete(f.shards, fp)
		}
	case rec.Sweep != nil:
		// The sweep's first record stands for its latest (see compact).
		sw, seen := f.sweeps[rec.Sweep.Fingerprint]
		if !seen {
			f.order = append(f.order, rec.Sweep.Fingerprint)
			sw.first = i
		}
		sw.rec, sw.last = *rec.Sweep, i
		f.sweeps[rec.Sweep.Fingerprint] = sw
		f.dead[sw.first] = rec.Sweep.State != SweepStateRunning
	case rec.Partial != nil:
		f.dead[i] = false
		byRange := f.shards[rec.Fingerprint]
		if byRange == nil {
			byRange = map[[2]int][]int{}
			f.shards[rec.Fingerprint] = byRange
		}
		k := [2]int{rec.Partial.Start, rec.Partial.End}
		if rec.Partial.Verify() != nil {
			f.Dropped++
			byRange[k] = append(byRange[k], i)
			return
		}
		for _, j := range byRange[k] {
			f.dead[j] = true
		}
		byRange[k] = []int{i}
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
		out = append(out, f.sweeps[fp].rec)
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
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("runstore: %v", err)
	}
	f, _, _ := scan(data)
	return f, nil
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
