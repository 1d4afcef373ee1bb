package lake

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/capi"
	"repro/internal/inject"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/sim"
)

func openStore(t testing.TB, dir string, maxBytes int64) *Store {
	t.Helper()
	s, err := Open(dir, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// Head reports whether the blob exists and its size.
func (s *Store) Head(hash string) (int64, bool) {
	if s.unavailable() || !validHash(hash) {
		return 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.blobs[hash]
	if !ok {
		return 0, false
	}
	return b.size, true
}

// resolve reports the hash key is bound to, counting nothing.
func resolve(s *Store, key string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	hash, ok := s.keys[key]
	return hash, ok
}

// goldenKeyOf is the lake key of a campaign's golden artifact, failing
// the test on error.
func goldenKeyOf(t *testing.T, cs shard.CampaignSpec) string {
	t.Helper()
	gfp, err := cs.GoldenFingerprint()
	if err != nil {
		t.Fatalf("golden fingerprint: %v", err)
	}
	return GoldenKey(gfp)
}

func TestStorePutGetRoundTrip(t *testing.T) {
	s := openStore(t, t.TempDir(), 0)
	data := []byte("golden artifact bytes")
	hash, err := s.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	if hash != HashOf(data) {
		t.Fatalf("Put returned %s, want the content address", hash)
	}
	if again, err := s.Put(data); err != nil || again != hash {
		t.Fatalf("re-Put of identical content: %s, %v", again, err)
	}
	got, err := s.Get(hash)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("Get returned different bytes than Put stored")
	}
	if size, ok := s.Head(hash); !ok || size != int64(len(data)) {
		t.Fatalf("Head: %d, %v", size, ok)
	}
	if _, ok := s.Head(HashOf([]byte("absent"))); ok {
		t.Fatal("Head reported an absent blob present")
	}
	if s.Bytes() != int64(len(data)) {
		t.Fatalf("Bytes() = %d, want %d", s.Bytes(), len(data))
	}
}

// TestStoreDurableAcrossReopen is the cross-sweep memoization property:
// a fresh process opening the same directory sees every published blob
// and key.
func TestStoreDurableAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, 0)
	data := []byte("a partial result")
	hash, err := s.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	key := PartialKey("fp00", 0, 8)
	if err := s.Link(key, hash); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, 0)
	got, ok := resolve(s2, key)
	if !ok || got != hash {
		t.Fatalf("reopened store resolved %q to (%s, %v)", key, got, ok)
	}
	blob, err := s2.Get(hash)
	if err != nil || !bytes.Equal(blob, data) {
		t.Fatalf("reopened store Get: %v", err)
	}
}

// TestStoreRejectsCorruptBlob: content verification on read drops a
// tampered blob instead of serving it.
func TestStoreRejectsCorruptBlob(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, 0)
	data := []byte("soon to be corrupted")
	hash, err := s.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Link("golden/fp", hash); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "blobs", hash), []byte("tampered"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(hash); err == nil {
		t.Fatal("corrupted blob served without error")
	}
	if _, ok := s.Head(hash); ok {
		t.Fatal("corrupted blob still present after failed verification")
	}
	if _, ok := resolve(s, "golden/fp"); ok {
		t.Fatal("key still resolves to a dropped blob")
	}
}

// TestStoreEvictionLRUAndPinning: the size bound evicts least-recently
// used blobs and their keys, but never a blob pinned by an in-flight
// read.
func TestStoreEvictionLRUAndPinning(t *testing.T) {
	s := openStore(t, t.TempDir(), 64)
	blob := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 30) }

	h0, err := s.Put(blob(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Link("golden/old", h0); err != nil {
		t.Fatal(err)
	}
	h1, err := s.Put(blob(1))
	if err != nil {
		t.Fatal(err)
	}
	_ = h1
	// Touch h0 so h1 is now the LRU victim, then push over the bound.
	if _, err := s.Get(h0); err != nil {
		t.Fatal(err)
	}
	h2, err := s.Put(blob(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Head(h1); ok {
		t.Fatal("LRU blob survived eviction pressure")
	}
	if _, ok := s.Head(h0); !ok {
		t.Fatal("recently used blob was evicted before the LRU one")
	}
	if _, ok := s.Head(h2); !ok {
		t.Fatal("just-written blob was evicted")
	}
	if s.Evictions() == 0 {
		t.Fatal("eviction not counted")
	}
	if s.Bytes() > 64 {
		t.Fatalf("store over bound after eviction: %d bytes", s.Bytes())
	}
}

// TestStoreFailChaosHook: a failed store refuses everything with
// ErrUnavailable and recovers when revived.
func TestStoreFailChaosHook(t *testing.T) {
	s := openStore(t, t.TempDir(), 0)
	hash, err := s.Put([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	s.Fail(true)
	if _, err := s.Put([]byte("y")); err != ErrUnavailable {
		t.Fatalf("Put on failed store: %v", err)
	}
	if _, err := s.Get(hash); err != ErrUnavailable {
		t.Fatalf("Get on failed store: %v", err)
	}
	if _, ok := s.Head(hash); ok {
		t.Fatal("Head on failed store reported presence")
	}
	if _, _, err := s.lookup("golden/fp"); err == nil {
		t.Fatal("lookup on failed store reported a hit")
	}
	s.Fail(false)
	if _, err := s.Get(hash); err != nil {
		t.Fatalf("store did not recover after Fail(false): %v", err)
	}
}

// hits and misses read m's counters for kind from its registry.
func hits(m *Metrics, kind string) uint64 {
	return m.reg.NewCounter("lake_hits_total", "", "kind", kind).Value()
}

func misses(m *Metrics, kind string) uint64 {
	return m.reg.NewCounter("lake_misses_total", "", "kind", kind).Value()
}

func TestStoreMetrics(t *testing.T) {
	s := openStore(t, t.TempDir(), 0)
	m := NewMetrics(obs.NewRegistry())
	s.SetMetrics(m)
	hash, err := s.Put([]byte("blob"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Link("golden/fp", hash); err != nil {
		t.Fatal(err)
	}
	s.lookup("golden/fp")
	s.lookup("golden/absent")
	s.lookup("partial/fp/0-4")
	if hits(m, "golden") != 1 || misses(m, "golden") != 1 || misses(m, "partial") != 1 {
		t.Fatalf("hit/miss counts: golden %d/%d partial -/%d",
			hits(m, "golden"), misses(m, "golden"), misses(m, "partial"))
	}
}

// lakeServer mounts the store's HTTP surface for client tests.
func lakeServer(t *testing.T, s *Store) *capi.Client {
	t.Helper()
	mux := http.NewServeMux()
	s.Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	c := capi.NewClient(srv.URL)
	c.Retries = -1
	return c
}

func TestHTTPArtifactSurface(t *testing.T) {
	s := openStore(t, t.TempDir(), 0)
	c := lakeServer(t, s)
	ctx := t.Context()
	data := []byte("over the wire")
	hash, err := s.Put(data)
	if err != nil {
		t.Fatal(err)
	}

	key := GoldenKey("fpHTTP")
	if _, ok, err := c.LakeGet(ctx, key); err != nil || ok {
		t.Fatalf("GET before link: %v, %v", ok, err)
	}
	if err := s.Link(key, hash); err != nil {
		t.Fatal(err)
	}
	got, ok, err := c.LakeGet(ctx, key)
	if err != nil || !ok || !bytes.Equal(got, data) {
		t.Fatalf("GET after link: %q, %v, %v", got, ok, err)
	}

	// A failed store answers 503.
	s.Fail(true)
	if _, _, err := c.LakeGet(ctx, key); err == nil {
		t.Fatal("GET succeeded on a failed store")
	}
}

func lakeSpec() shard.CampaignSpec {
	o := inject.DefaultOptions()
	cs := shard.SpecFromOptions(1, "memcpy", o)
	cs.SampleFrac = 0.05
	cs.MinPerCluster = 2
	cs.Seed = 7
	return cs
}

// TestBuilderShareAndFallback is the lake-is-never-a-correctness-
// dependency gate at the builder level: a second builder fetches the
// first's published artifact (no golden re-simulation) and produces
// bit-identical shard results; with the lake failed, it still succeeds
// by building locally.
func TestBuilderShareAndFallback(t *testing.T) {
	s := openStore(t, t.TempDir(), 0)
	cs := lakeSpec()

	b1 := NewStoreBuilder(s)
	built1, fetched, err := b1.Build(cs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fetched {
		t.Fatal("first builder claims it fetched from an empty lake")
	}
	if _, ok := resolve(s, goldenKeyOf(t, cs)); !ok {
		t.Fatal("first build did not publish its golden artifact")
	}

	c := lakeServer(t, s)
	m := NewMetrics(obs.NewRegistry())
	b2 := NewClientBuilder(c, "builder-2", m)
	built2, fetched, err := b2.Build(cs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !fetched {
		t.Fatal("second builder rebuilt a published campaign")
	}
	if hits(m, "golden") != 1 {
		t.Fatalf("client hit count %d, want 1", hits(m, "golden"))
	}
	specs, err := shard.Plan(cs, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := shard.ExecuteOn(built1, specs[0])
	if err != nil {
		t.Fatal(err)
	}
	p2, err := shard.ExecuteOn(built2, specs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.Injections) != len(p2.Injections) {
		t.Fatal("fetched campaign diverged from the building one")
	}
	for i := range p1.Injections {
		if p1.Injections[i] != p2.Injections[i] {
			t.Fatalf("injection %d differs between built and fetched campaign", i)
		}
	}

	// Chaos leg: lake dead, Build still succeeds, locally.
	s.Fail(true)
	b3 := NewClientBuilder(c, "builder-3", nil)
	built3, fetched, err := b3.Build(cs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fetched {
		t.Fatal("builder reported a fetch from a dead lake")
	}
	p3, err := shard.ExecuteOn(built3, specs[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := range p1.Injections {
		if p1.Injections[i] != p3.Injections[i] {
			t.Fatalf("injection %d differs with the lake dead", i)
		}
	}
}

// TestBuilderWorkerNeverPublishes is the one-writer rule: a worker's
// client builder that misses a golden builds it locally, counts one miss
// and leaves the lake as it found it — no blob, no key. Only the
// coordinator publishes.
func TestBuilderWorkerNeverPublishes(t *testing.T) {
	s := openStore(t, t.TempDir(), 0)
	cs := lakeSpec()
	m := NewMetrics(obs.NewRegistry())
	built, fetched, err := NewClientBuilder(lakeServer(t, s), "worker-1", m).Build(cs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fetched || built == nil {
		t.Fatalf("Build on an empty lake: fetched=%v, built=%v", fetched, built != nil)
	}
	if h, mi := hits(m, "golden"), misses(m, "golden"); h != 0 || mi != 1 {
		t.Fatalf("builder counted %d golden hits and %d misses, want 0 and 1", h, mi)
	}
	if _, ok := resolve(s, goldenKeyOf(t, cs)); ok {
		t.Fatal("worker published its golden key")
	}
	if n := s.Bytes(); n != 0 {
		t.Fatalf("worker uploaded %d bytes to the lake", n)
	}
}

// TestBuilderDamagedReplyIsMiss: a lake reply whose body was damaged in
// flight no longer hashes to its ETag, so the worker's one GET reads as a
// golden miss and the worker builds locally — the same campaign the
// undamaged artifact would have given.
func TestBuilderDamagedReplyIsMiss(t *testing.T) {
	s := openStore(t, t.TempDir(), 0)
	cs := lakeSpec()
	if _, _, err := NewStoreBuilder(s).Build(cs, nil); err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	s.Register(mux)
	var gets atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gets.Add(1)
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		body[len(body)/2] ^= 1
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
	}))
	defer srv.Close()
	m := NewMetrics(obs.NewRegistry())
	built, fetched, err := NewClientBuilder(capi.NewClient(srv.URL), "worker-1", m).Build(cs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fetched || built == nil {
		t.Fatalf("damaged reply: fetched=%v, built=%v; want a local build", fetched, built != nil)
	}
	if h, mi := hits(m, "golden"), misses(m, "golden"); h != 0 || mi != 1 {
		t.Fatalf("builder counted %d golden hits and %d misses, want 0 and 1", h, mi)
	}
	if n := gets.Load(); n != 1 {
		t.Fatalf("golden fetch made %d requests, want 1", n)
	}
	local, err := shard.BuildLocal(cs, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := shard.EncodeBuilt(local)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := shard.EncodeBuilt(built); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("campaign built past a damaged reply differs from BuildLocal's (err %v)", err)
	}
}

// TestBuilderRejectsPoisonedArtifact: a key pointing at bytes that are
// not a valid golden artifact must fall back to a local build and count
// that build as the builder's golden miss (the store already counted the
// resolve as a hit). A worker's builder leaves the key alone; the
// coordinator's store builder heals it by republishing.
func TestBuilderRejectsPoisonedArtifact(t *testing.T) {
	s := openStore(t, t.TempDir(), 0)
	cs := lakeSpec()
	key := goldenKeyOf(t, cs)
	hash, err := s.Put([]byte("not a golden artifact"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Link(key, hash); err != nil {
		t.Fatal(err)
	}
	m := NewMetrics(obs.NewRegistry())
	b := NewClientBuilder(lakeServer(t, s), "builder-1", m)
	built, fetched, err := b.Build(cs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fetched {
		t.Fatal("poisoned artifact adopted")
	}
	if built == nil {
		t.Fatal("no campaign built")
	}
	if h, mi := hits(m, "golden"), misses(m, "golden"); h != 0 || mi != 1 {
		t.Fatalf("builder counted %d golden hits and %d misses, want 0 and 1", h, mi)
	}
	if got, ok := resolve(s, key); !ok || got != hash {
		t.Fatal("worker's builder rewrote the poisoned key")
	}

	if _, fetched, err := NewStoreBuilder(s).Build(cs, nil); err != nil || fetched {
		t.Fatalf("store builder on a poisoned key: fetched=%v err=%v", fetched, err)
	}
	healed, ok := resolve(s, key)
	if !ok || healed == hash {
		t.Fatal("key not healed after local rebuild")
	}
}

// TestBuilderHealsStaleCodecArtifact is reject-and-heal across a
// checkpoint codec version bump: a lake still holding an artifact whose
// nested checkpoints were written by codec version 1 (a fresh encode with
// every nested version byte patched back) must not poison anyone.
// BuildFromGolden refuses the blob; Builder.Build falls back to a local
// golden run whose campaign is bit-identical to BuildLocal's, and leaves
// the key re-linked to a current-codec blob the next builder adopts.
func TestBuilderHealsStaleCodecArtifact(t *testing.T) {
	s := openStore(t, t.TempDir(), 0)
	cs := lakeSpec()
	local, err := shard.BuildLocal(cs, nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := shard.EncodeBuilt(local)
	if err != nil {
		t.Fatal(err)
	}
	stale := append([]byte(nil), fresh...)
	magic := []byte("1PKS") // the checkpoint magic "SKP1", little-endian
	patched := 0
	for at := 0; ; patched++ {
		i := bytes.Index(stale[at:], magic)
		if i < 0 {
			break
		}
		at += i + len(magic)
		if stale[at] != 2 {
			t.Fatalf("nested checkpoint carries codec version %d, test expects 2", stale[at])
		}
		stale[at] = 1
	}
	if patched == 0 {
		t.Fatal("golden artifact holds no nested checkpoint to patch")
	}
	if _, err := shard.BuildFromGolden(cs, nil, stale); err == nil {
		t.Fatal("BuildFromGolden adopted an artifact with version-1 checkpoints")
	}

	key := goldenKeyOf(t, cs)
	staleHash, err := s.Put(stale)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Link(key, staleHash); err != nil {
		t.Fatal(err)
	}
	built, fetched, err := NewStoreBuilder(s).Build(cs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fetched {
		t.Fatal("stale-codec artifact adopted")
	}
	rebuilt, err := shard.EncodeBuilt(built)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rebuilt, fresh) {
		t.Fatal("campaign built past a stale artifact differs from BuildLocal's")
	}
	healedHash, ok := resolve(s, key)
	if !ok || healedHash == staleHash {
		t.Fatal("key not healed after local rebuild")
	}
	healed, err := s.Get(healedHash)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(healed, fresh) {
		t.Fatal("healed key does not point at the current-codec artifact")
	}
	if _, fetched, err := NewStoreBuilder(s).Build(cs, nil); err != nil || !fetched {
		t.Fatalf("second builder did not adopt the healed artifact: fetched=%v err=%v", fetched, err)
	}
}

// TestBuilderPlanningAdoption covers the coordinator's planning-only
// adoption. The store builder checks an artifact down to each nested
// checkpoint's header and decodes no checkpoint, so it adopts an artifact
// whose checkpoint bodies are corrupt while a worker's client builder
// refuses it; its Built merges a full set of partials to the Result a full
// adoption merges, and refuses to execute a shard; and an artifact built
// at another checkpoint pitch is still refused and healed.
func TestBuilderPlanningAdoption(t *testing.T) {
	cs := lakeSpec()
	key := goldenKeyOf(t, cs)
	local, err := shard.BuildLocal(cs, nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := shard.EncodeBuilt(local)
	if err != nil {
		t.Fatal(err)
	}
	link := func(s *Store, blob []byte) string {
		t.Helper()
		hash, err := s.Put(blob)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Link(key, hash); err != nil {
			t.Fatal(err)
		}
		return hash
	}

	// Corrupt every nested checkpoint just past its header (magic,
	// version, kind tag, time): the body no longer decodes.
	corrupt := bytes.Clone(fresh)
	magic := []byte("1PKS") // the checkpoint magic "SKP1", little-endian
	patched := 0
	for at := 0; ; patched++ {
		i := bytes.Index(corrupt[at:], magic)
		if i < 0 {
			break
		}
		at += i + 4 + 1 + 1 + 8 + 8 // magic, version, tag, time, evals
		for j := 0; j < 10; j++ {
			corrupt[at+j] = 0xff // the design name's length: an overlong varint
		}
	}
	if patched == 0 {
		t.Fatal("golden artifact holds no nested checkpoint to corrupt")
	}
	s := openStore(t, t.TempDir(), 0)
	link(s, corrupt)
	if _, fetched, err := NewStoreBuilder(s).Build(cs, nil); err != nil || !fetched {
		t.Fatalf("store builder on corrupt checkpoint bodies: fetched=%v err=%v, want a planning adoption", fetched, err)
	}
	if _, fetched, err := NewClientBuilder(lakeServer(t, s), "worker-1", nil).Build(cs, nil); err != nil || fetched {
		t.Fatalf("client builder on corrupt checkpoint bodies: fetched=%v err=%v, want a local build", fetched, err)
	}

	// A planning Built merges like a full one and executes nothing.
	s = openStore(t, t.TempDir(), 0)
	link(s, fresh)
	planned, fetched, err := NewStoreBuilder(s).Build(cs, nil)
	if err != nil || !fetched {
		t.Fatalf("store builder on a current artifact: fetched=%v err=%v", fetched, err)
	}
	adopted, err := shard.BuildFromGolden(cs, nil, fresh)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := shard.Plan(cs, 3, len(local.Jobs))
	if err != nil {
		t.Fatal(err)
	}
	if len(planned.Jobs) != len(local.Jobs) {
		t.Fatalf("planning Built drew %d jobs, the local build %d", len(planned.Jobs), len(local.Jobs))
	}
	var partials []*shard.Partial
	for _, sp := range specs {
		p, err := shard.ExecuteOn(local, sp)
		if err != nil {
			t.Fatal(err)
		}
		partials = append(partials, p)
	}
	var merged [2]bytes.Buffer
	for i, b := range []*shard.Built{planned, adopted} {
		res, err := shard.Merge(b, partials)
		if err != nil {
			t.Fatal(err)
		}
		res.GoldenWall = 0 // this process's adoption time
		if err := res.WriteJSON(&merged[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(merged[0].Bytes(), merged[1].Bytes()) {
		t.Fatal("planning Built merged a different Result than a full adoption")
	}
	if _, err := shard.ExecuteOn(planned, specs[0]); err == nil {
		t.Fatal("planning Built executed a shard")
	}

	// An artifact built at pitch 2 is refused and the key healed.
	pitch2, err := shard.BuildLocal(cs, func(o *inject.Options) { o.CheckpointEveryCycles = 2 })
	if err != nil {
		t.Fatal(err)
	}
	stale, err := shard.EncodeBuilt(pitch2)
	if err != nil {
		t.Fatal(err)
	}
	s = openStore(t, t.TempDir(), 0)
	staleHash := link(s, stale)
	if _, fetched, err := NewStoreBuilder(s).Build(cs, nil); err != nil || fetched {
		t.Fatalf("store builder on a pitch-2 artifact: fetched=%v err=%v, want a local build", fetched, err)
	}
	healedHash, ok := resolve(s, key)
	if !ok || healedHash == staleHash {
		t.Fatal("key not healed after local rebuild")
	}
	if healed, err := s.Get(healedHash); err != nil || !bytes.Equal(healed, fresh) {
		t.Fatalf("healed key does not point at the default-pitch artifact (err %v)", err)
	}
}

func TestPartialsRoundTripAndValidation(t *testing.T) {
	s := openStore(t, t.TempDir(), 0)
	orig := &shard.Partial{
		Index: 2, Start: 8, End: 12,
		Injections: nil,
		Work:       inject.Work{InjectEvals: 77},
	}
	orig.Injections = make([]inject.Injection, 4)
	if err := orig.Stamp(); err != nil {
		t.Fatal(err)
	}
	s.PutPartial("fpP", orig)

	got := s.GetPartial("fpP", 8, 12)
	if got == nil {
		t.Fatal("published partial not found")
	}
	if got.InjectEvals != 77 || got.Start != 8 || got.End != 12 || len(got.Injections) != 4 {
		t.Fatalf("round-tripped partial mangled: %+v", got)
	}
	if s.GetPartial("fpP", 0, 8) != nil {
		t.Fatal("wrong-range lookup returned a partial")
	}

	// A poisoned object (garbage bytes under the key) reads as a miss.
	bad, err := s.Put([]byte("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Link(PartialKey("fpQ", 0, 4), bad); err != nil {
		t.Fatal(err)
	}
	if s.GetPartial("fpQ", 0, 4) != nil {
		t.Fatal("garbage partial adopted")
	}

	s.Fail(true)
	if s.GetPartial("fpP", 8, 12) != nil {
		t.Fatal("dead lake returned a partial")
	}
	s.PutPartial("fpP", orig) // must not panic or error
}

// TestFetchObservedOnStoreReads: lake_fetch_seconds counts the
// coordinator's own reads, one observation per hit whoever reads — a
// store builder's adoption, a partial restored by GetPartial, a GET
// served to a worker — and none for a miss.
func TestFetchObservedOnStoreReads(t *testing.T) {
	s := openStore(t, t.TempDir(), 0)
	m := NewMetrics(obs.NewRegistry())
	s.SetMetrics(m)
	cs := lakeSpec()
	local, err := shard.BuildLocal(cs, nil)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := shard.EncodeBuilt(local)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.publish(goldenKeyOf(t, cs), blob); err != nil {
		t.Fatal(err)
	}
	p := &shard.Partial{Start: 0, End: 4, Injections: make([]inject.Injection, 4)}
	if err := p.Stamp(); err != nil {
		t.Fatal(err)
	}
	s.PutPartial("fpO", p)

	steps := []struct {
		name string
		read func() bool
		adds uint64
	}{
		{"store-builder adoption", func() bool {
			_, fetched, err := NewStoreBuilder(s).Build(cs, nil)
			return err == nil && fetched
		}, 1},
		{"GetPartial", func() bool { return s.GetPartial("fpO", 0, 4) != nil }, 1},
		{"GetPartial miss", func() bool { return s.GetPartial("fpO", 4, 8) == nil }, 0},
		{"GET served to a worker", func() bool {
			_, ok, err := lakeServer(t, s).LakeGet(context.Background(), PartialKey("fpO", 0, 4))
			return err == nil && ok
		}, 1},
	}
	for _, st := range steps {
		before := m.fetch.Count()
		if !st.read() {
			t.Fatalf("%s: read did not go as planned", st.name)
		}
		if got := m.fetch.Count() - before; got != st.adds {
			t.Fatalf("%s: lake_fetch_seconds took %d observations, want %d", st.name, got, st.adds)
		}
	}
}

// TestHTTPRejectsBadInput covers the read-only surface's refusal paths.
func TestHTTPRejectsBadInput(t *testing.T) {
	s := openStore(t, t.TempDir(), 0)
	mux := http.NewServeMux()
	s.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	check := func(method, path, body string, wantStatus int) {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != wantStatus {
			t.Fatalf("%s %s: status %d, want %d", method, path, resp.StatusCode, wantStatus)
		}
	}
	check(http.MethodGet, "/v1/lake/", "", http.StatusBadRequest)
	check(http.MethodGet, "/v1/lake/absent/key", "", http.StatusNotFound)
	// The coordinator is the lake's only writer: every other method is
	// refused, even carrying a well-formed upload, and nothing lands in
	// the store.
	for _, method := range []string{http.MethodPut, http.MethodPost, http.MethodHead} {
		check(method, "/v1/lake/some/key", "absent", http.StatusMethodNotAllowed)
	}
	// A failed store answers 503 + Retry-After.
	s.Fail(true)
	check(http.MethodGet, "/v1/lake/absent/key", "", http.StatusServiceUnavailable)
	s.Fail(false)
	if n := s.Bytes(); n != 0 {
		t.Fatalf("refused requests stored %d bytes", n)
	}
}

// TestBuilderConcurrentBuilds drives one store builder from several
// goroutines at once, as the coordinator's concurrent set-up does: three
// golden specs built side by side into an empty lake, then adopted side
// by side from it, every artifact byte-identical to a serial local
// build's. Under -race it covers everything concurrent builds share.
func TestBuilderConcurrentBuilds(t *testing.T) {
	level, soc2 := lakeSpec(), lakeSpec()
	level.Engine = sim.KindLevel
	soc2.SoC = 2
	specs := []shard.CampaignSpec{lakeSpec(), level, soc2}
	want := make([][]byte, len(specs))
	for i, cs := range specs {
		b, err := shard.BuildLocal(cs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = shard.EncodeBuilt(b); err != nil {
			t.Fatal(err)
		}
	}
	bl := NewStoreBuilder(openStore(t, t.TempDir(), 0))
	for _, wantFetched := range []bool{false, true} {
		got := make([][]byte, len(specs))
		fetched := make([]bool, len(specs))
		errs := make([]error, len(specs))
		var wg sync.WaitGroup
		for i, cs := range specs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var b *shard.Built
				b, fetched[i], errs[i] = bl.Build(cs, nil)
				if errs[i] == nil {
					got[i], errs[i] = shard.EncodeBuilt(b)
				}
			}()
		}
		wg.Wait()
		for i := range specs {
			if errs[i] != nil {
				t.Fatalf("spec %d: %v", i, errs[i])
			}
			if fetched[i] != wantFetched {
				t.Errorf("spec %d: fetched=%t, want %t", i, fetched[i], wantFetched)
			}
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("spec %d (fetched=%t): artifact differs from a serial local build's", i, wantFetched)
			}
		}
	}
}
