// Package lake is the fleet's content-addressed artifact store: golden
// campaign builds (serialized checkpoints + signature + VCD) and
// finished shard partials, shared across worker processes and across
// sweeps. Blobs are keyed by their sha256 and written atomically
// (temp file + rename); human-meaningful keys ("golden/<golden fp>",
// "partial/<fp>/<start>-<end>") map onto blob hashes through a durable
// index that survives restarts, which is what makes cross-sweep
// memoization work on a fresh coordinator. The store is size-bounded:
// least-recently-used blobs are evicted — together with every key that
// references them — except while pinned by an in-flight read. The
// coordinator that owns the store is its only writer; workers read it
// over one GET endpoint, a key per request (see Register).
//
// The lake is an accelerator, never a correctness dependency. Every
// consumer treats any lake error (including a deliberately failed store,
// see Fail) as a miss and falls back to computing locally, so merged
// sweep output is byte-identical with the lake on, off, or dying
// mid-sweep.
package lake

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/shard"
)

// DefaultMaxBytes bounds the store when the caller does not: large
// enough for dozens of golden artifacts of the paper's SoCs, small
// enough not to surprise a developer laptop.
const DefaultMaxBytes = 4 << 30

// ErrUnavailable is returned by every operation after Fail(true) — the
// chaos hook lake smoke tests use to kill the lake mid-sweep.
var ErrUnavailable = fmt.Errorf("lake: store unavailable")

// ErrNotFound marks a clean miss: no such key or blob, or a blob dropped
// after failing content verification. Consumers compute locally.
var ErrNotFound = fmt.Errorf("not found")

// ErrBadRequest marks a malformed key or hash.
var ErrBadRequest = fmt.Errorf("bad request")

type blobMeta struct {
	size    int64
	lastUse int64 // monotonic use counter, higher = more recent
	refs    map[string]bool
	pins    int
}

// Store is a content-addressed artifact store rooted at one directory.
// All methods are safe for concurrent use.
type Store struct {
	dir      string
	maxBytes int64
	m        *Metrics
	failed   atomic.Bool

	mu        sync.Mutex
	blobs     map[string]*blobMeta
	keys      map[string]string // key -> blob hash
	useClock  int64
	bytes     int64
	evictions uint64
}

// Open opens (creating if necessary) the store rooted at dir, scanning
// any blobs and keys a previous process left behind. maxBytes <= 0
// selects DefaultMaxBytes.
func Open(dir string, maxBytes int64) (*Store, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	s := &Store{
		dir:      dir,
		maxBytes: maxBytes,
		blobs:    map[string]*blobMeta{},
		keys:     map[string]string{},
	}
	for _, sub := range []string{s.blobDir(), s.keyDir(), s.tmpDir()} {
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, fmt.Errorf("lake: %w", err)
		}
	}
	ents, err := os.ReadDir(s.blobDir())
	if err != nil {
		return nil, fmt.Errorf("lake: %w", err)
	}
	for _, ent := range ents {
		info, err := ent.Info()
		if err != nil || ent.IsDir() || !validHash(ent.Name()) {
			continue
		}
		s.blobs[ent.Name()] = &blobMeta{size: info.Size(), refs: map[string]bool{}}
		s.bytes += info.Size()
	}
	kents, err := os.ReadDir(s.keyDir())
	if err != nil {
		return nil, fmt.Errorf("lake: %w", err)
	}
	for _, ent := range kents {
		raw, err := os.ReadFile(filepath.Join(s.keyDir(), ent.Name()))
		if err != nil {
			continue
		}
		var rec keyRecord
		if json.Unmarshal(raw, &rec) != nil || rec.Key == "" || !validHash(rec.Hash) {
			_ = os.Remove(filepath.Join(s.keyDir(), ent.Name()))
			continue
		}
		b, ok := s.blobs[rec.Hash]
		if !ok {
			// Dangling key: its blob was evicted or lost.
			_ = os.Remove(filepath.Join(s.keyDir(), ent.Name()))
			continue
		}
		s.keys[rec.Key] = rec.Hash
		b.refs[rec.Key] = true
	}
	return s, nil
}

type keyRecord struct {
	Key  string `json:"key"`
	Hash string `json:"hash"`
}

func (s *Store) blobDir() string { return filepath.Join(s.dir, "blobs") }
func (s *Store) keyDir() string  { return filepath.Join(s.dir, "keys") }
func (s *Store) tmpDir() string  { return filepath.Join(s.dir, "tmp") }

func (s *Store) blobPath(hash string) string { return filepath.Join(s.blobDir(), hash) }

// keyPath names the durable record for key: the filename is the key's
// own sha256 (keys contain '/'), the record inside holds the clear key.
func (s *Store) keyPath(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.keyDir(), hex.EncodeToString(sum[:]))
}

func validHash(h string) bool {
	if len(h) != 64 {
		return false
	}
	_, err := hex.DecodeString(h)
	return err == nil
}

// SetMetrics attaches obs instrumentation. Call before serving traffic.
func (s *Store) SetMetrics(m *Metrics) {
	s.mu.Lock()
	s.m = m
	s.mu.Unlock()
	if m != nil {
		m.setBytesFunc(func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.bytes)
		})
	}
}

func (s *Store) met() *Metrics {
	if s.m != nil {
		return s.m
	}
	return noMetrics
}

// Dir reports the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Fail switches the chaos kill toggle: while set, every operation
// returns ErrUnavailable (HTTP handlers answer 503). Consumers must
// degrade to local computation — the lake-never-changes-output
// invariant's "failing mid-sweep" leg is gated on this hook.
func (s *Store) Fail(on bool) { s.failed.Store(on) }

func (s *Store) unavailable() bool { return s.failed.Load() }

// HashOf returns the content address of data.
func HashOf(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Put stores data under its content address and returns the hash. An
// existing identical blob is a no-op (content addressing dedupes).
func (s *Store) Put(data []byte) (string, error) {
	if s.unavailable() {
		return "", ErrUnavailable
	}
	hash := HashOf(data)
	s.mu.Lock()
	if b, ok := s.blobs[hash]; ok {
		s.useClock++
		b.lastUse = s.useClock
		s.mu.Unlock()
		return hash, nil
	}
	s.mu.Unlock()

	// Atomic publish: write to a private temp file, fsync-free rename into
	// place. Concurrent writers of the same content race benignly — the
	// rename target is the same bytes.
	tmp, err := os.CreateTemp(s.tmpDir(), "put-*")
	if err != nil {
		return "", fmt.Errorf("lake: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return "", fmt.Errorf("lake: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return "", fmt.Errorf("lake: %w", err)
	}
	if err := os.Rename(tmpName, s.blobPath(hash)); err != nil {
		os.Remove(tmpName)
		return "", fmt.Errorf("lake: %w", err)
	}

	s.mu.Lock()
	if _, ok := s.blobs[hash]; !ok {
		s.useClock++
		s.blobs[hash] = &blobMeta{size: int64(len(data)), lastUse: s.useClock, refs: map[string]bool{}}
		s.bytes += int64(len(data))
		s.evictLocked()
	}
	s.mu.Unlock()
	return hash, nil
}

// Get returns the blob at hash, verifying its content address on the way
// out. A blob that fails verification (disk corruption) is deleted and
// reported as missing — the consumer rebuilds locally. The blob is
// pinned for the duration of the read so eviction cannot race it away.
func (s *Store) Get(hash string) ([]byte, error) {
	if s.unavailable() {
		return nil, ErrUnavailable
	}
	if !validHash(hash) {
		return nil, fmt.Errorf("lake: invalid hash %q: %w", hash, ErrBadRequest)
	}
	s.mu.Lock()
	b, ok := s.blobs[hash]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("lake: no blob %s: %w", hash, ErrNotFound)
	}
	b.pins++
	s.useClock++
	b.lastUse = s.useClock
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		b.pins--
		s.mu.Unlock()
	}()

	data, err := os.ReadFile(s.blobPath(hash))
	if err != nil {
		return nil, fmt.Errorf("lake: %w", err)
	}
	if HashOf(data) != hash {
		// Refuse corrupted content and drop it so the next publisher heals
		// the entry. To the consumer this is a miss, not a failure.
		s.dropBlob(hash)
		return nil, fmt.Errorf("lake: blob %s failed content verification: %w", hash, ErrNotFound)
	}
	return data, nil
}

// Link durably binds key to an existing blob, replacing any earlier
// binding.
func (s *Store) Link(key, hash string) error {
	if s.unavailable() {
		return ErrUnavailable
	}
	if key == "" || !validHash(hash) {
		return fmt.Errorf("lake: invalid key or hash: %w", ErrBadRequest)
	}
	s.mu.Lock()
	b, ok := s.blobs[hash]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("lake: no blob %s to link %q to: %w", hash, key, ErrNotFound)
	}
	rec, err := json.Marshal(keyRecord{Key: key, Hash: hash})
	if err != nil {
		s.mu.Unlock()
		return err
	}
	if old, ok := s.keys[key]; ok && old != hash {
		if ob := s.blobs[old]; ob != nil {
			delete(ob.refs, key)
		}
	}
	s.keys[key] = hash
	b.refs[key] = true
	path := s.keyPath(key)
	s.mu.Unlock()

	tmp, err := os.CreateTemp(s.tmpDir(), "key-*")
	if err != nil {
		return fmt.Errorf("lake: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(rec); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("lake: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("lake: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("lake: %w", err)
	}
	return nil
}

// lookup returns the blob bound to key and its hash, verified against
// its content address by Get, and counts one hit or miss for the key's
// kind; a hit's wall time goes into lake_fetch_seconds. An unbound key, or
// one whose blob fails verification (Get drops the blob and its keys), is
// a miss: ErrNotFound. A lake failure counts nothing.
func (s *Store) lookup(key string) (string, []byte, error) {
	start := time.Now()
	if s.unavailable() {
		return "", nil, ErrUnavailable
	}
	if key == "" {
		return "", nil, fmt.Errorf("lake: empty key: %w", ErrBadRequest)
	}
	s.mu.Lock()
	hash, ok := s.keys[key]
	s.mu.Unlock()
	var data []byte
	err := fmt.Errorf("lake: no artifact for key %q: %w", key, ErrNotFound)
	if ok {
		data, err = s.Get(hash)
	}
	switch {
	case err == nil:
		s.met().hit(kindOf(key))
		s.met().observeFetch(time.Since(start))
	case errors.Is(err, ErrNotFound):
		s.met().miss(kindOf(key))
	}
	return hash, data, err
}

// kindOf extracts the artifact kind from a key ("golden/ab12.." ->
// "golden").
func kindOf(key string) string {
	if i := strings.IndexByte(key, '/'); i > 0 {
		return key[:i]
	}
	return "other"
}

// publish stores data and durably binds key to it: the one write path,
// taken only by the coordinator (Builder after a local golden build,
// PutPartial for a finished shard). lookup is the one read path.
func (s *Store) publish(key string, data []byte) error {
	hash, err := s.Put(data)
	if err != nil {
		return err
	}
	return s.Link(key, hash)
}

// PutPartial publishes partial under (fp, its plan range); a failed
// publish is swallowed.
func (s *Store) PutPartial(fp string, partial *shard.Partial) {
	blob, err := json.Marshal(partial)
	if err != nil {
		return
	}
	_ = s.publish(PartialKey(fp, partial.Start, partial.End), blob)
}

// GetPartial implements shard.PartialCache over the partials PutPartial
// published, reused by overlapping future sweeps without re-simulation.
// Every lake error reads as a miss, and so does a blob that does not
// decode, does not describe exactly (fp, start, end) or fails its
// integrity checksum: adopting it would silently corrupt a merge.
func (s *Store) GetPartial(fp string, start, end int) *shard.Partial {
	_, blob, err := s.lookup(PartialKey(fp, start, end))
	if err != nil {
		return nil
	}
	var p shard.Partial
	if json.Unmarshal(blob, &p) != nil || p.Start != start || p.End != end || p.Verify() != nil {
		return nil
	}
	return &p
}

// Bytes reports the store's current blob footprint.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Evictions reports how many blobs the size bound has evicted.
func (s *Store) Evictions() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evictions
}

// evictLocked enforces the size bound: least-recently-used blobs go
// first, together with their keys; pinned blobs (in-flight reads) are
// skipped, so the store may transiently exceed the bound while
// everything in it is in use. Caller holds s.mu.
func (s *Store) evictLocked() {
	for s.bytes > s.maxBytes {
		victim := ""
		var oldest int64
		for h, b := range s.blobs {
			if b.pins > 0 {
				continue
			}
			if victim == "" || b.lastUse < oldest {
				victim, oldest = h, b.lastUse
			}
		}
		if victim == "" {
			return
		}
		s.removeBlobLocked(victim)
		s.evictions++
		s.met().evicted()
	}
}

// removeBlobLocked deletes a blob, its file, and every key referencing
// it. Caller holds s.mu.
func (s *Store) removeBlobLocked(hash string) {
	b, ok := s.blobs[hash]
	if !ok {
		return
	}
	for key := range b.refs {
		delete(s.keys, key)
		_ = os.Remove(s.keyPath(key))
	}
	delete(s.blobs, hash)
	s.bytes -= b.size
	_ = os.Remove(s.blobPath(hash))
}

// dropBlob removes a blob that failed verification.
func (s *Store) dropBlob(hash string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.removeBlobLocked(hash)
}

// GoldenKey is the lake key of a golden-build artifact, given the golden
// fingerprint (shard.CampaignSpec.GoldenFingerprint) every campaign it
// serves shares.
func GoldenKey(gfp string) string { return "golden/" + gfp }

// PartialKey is the lake key of a finished shard partial for one plan
// range of a campaign.
func PartialKey(fp string, start, end int) string {
	return fmt.Sprintf("partial/%s/%d-%d", fp, start, end)
}
