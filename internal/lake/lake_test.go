package lake

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/capi"
	"repro/internal/inject"
	"repro/internal/obs"
	"repro/internal/shard"
)

func openStore(t *testing.T, dir string, maxBytes int64) *Store {
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
	got, ok := s2.Resolve(key)
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
	if _, ok := s.Resolve("golden/fp"); ok {
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
	if _, ok := s.Resolve("golden/fp"); ok {
		t.Fatal("Resolve on failed store reported a hit")
	}
	s.Fail(false)
	if _, err := s.Get(hash); err != nil {
		t.Fatalf("store did not recover after Fail(false): %v", err)
	}
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
	s.Resolve("golden/fp")
	s.Resolve("golden/absent")
	s.Resolve("partial/fp/0-4")
	if m.Hits("golden") != 1 || m.Misses("golden") != 1 || m.Misses("partial") != 1 {
		t.Fatalf("hit/miss counts: golden %d/%d partial -/%d",
			m.Hits("golden"), m.Misses("golden"), m.Misses("partial"))
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
	got, err := c.GetArtifact(ctx, hash)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("GET: %v", err)
	}

	key := GoldenKey("fpHTTP")
	if _, ok, err := c.LakeResolve(ctx, key); err != nil || ok {
		t.Fatalf("resolve before link: %v, %v", ok, err)
	}
	if err := s.Link(key, hash); err != nil {
		t.Fatal(err)
	}
	gotHash, ok, err := c.LakeResolve(ctx, key)
	if err != nil || !ok || gotHash != hash {
		t.Fatalf("resolve after link: %s, %v, %v", gotHash, ok, err)
	}

	// A failed store answers 503 on every route.
	s.Fail(true)
	if _, err := c.GetArtifact(ctx, hash); err == nil {
		t.Fatal("GET succeeded on a failed store")
	}
	if _, _, err := c.LakeResolve(ctx, key); err == nil {
		t.Fatal("resolve succeeded on a failed store")
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
	if _, ok := s.Resolve(goldenKeyOf(t, cs)); !ok {
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
	if m.Hits("golden") != 1 {
		t.Fatalf("client hit count %d, want 1", m.Hits("golden"))
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
	if h, mi := m.Hits("golden"), m.Misses("golden"); h != 0 || mi != 1 {
		t.Fatalf("builder counted %d golden hits and %d misses, want 0 and 1", h, mi)
	}
	if _, ok := s.Resolve(goldenKeyOf(t, cs)); ok {
		t.Fatal("worker published its golden key")
	}
	if n := s.Bytes(); n != 0 {
		t.Fatalf("worker uploaded %d bytes to the lake", n)
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
	if h, mi := m.Hits("golden"), m.Misses("golden"); h != 0 || mi != 1 {
		t.Fatalf("builder counted %d golden hits and %d misses, want 0 and 1", h, mi)
	}
	if got, ok := s.Resolve(key); !ok || got != hash {
		t.Fatal("worker's builder rewrote the poisoned key")
	}

	if _, fetched, err := NewStoreBuilder(s).Build(cs, nil); err != nil || fetched {
		t.Fatalf("store builder on a poisoned key: fetched=%v err=%v", fetched, err)
	}
	healed, ok := s.Resolve(key)
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
	healedHash, ok := s.Resolve(key)
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

func TestPartialsRoundTripAndValidation(t *testing.T) {
	s := openStore(t, t.TempDir(), 0)
	p := NewStorePartials(s)
	orig := &shard.Partial{
		Index: 2, Start: 8, End: 12,
		Injections: nil,
		Work:       inject.Work{InjectEvals: 77},
	}
	orig.Injections = make([]inject.Injection, 4)
	s.PutPartial("fpP", orig)

	got := p.GetPartial("fpP", 8, 12)
	if got == nil {
		t.Fatal("published partial not found")
	}
	if got.InjectEvals != 77 || got.Start != 8 || got.End != 12 || len(got.Injections) != 4 {
		t.Fatalf("round-tripped partial mangled: %+v", got)
	}
	if p.GetPartial("fpP", 0, 8) != nil {
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
	if p.GetPartial("fpQ", 0, 4) != nil {
		t.Fatal("garbage partial adopted")
	}

	s.Fail(true)
	if p.GetPartial("fpP", 8, 12) != nil {
		t.Fatal("dead lake returned a partial")
	}
	s.PutPartial("fpP", orig) // must not panic or error
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
	blob := "/v1/artifacts/" + HashOf([]byte("absent"))
	check(http.MethodGet, "/v1/artifacts/nothex", "", http.StatusBadRequest)
	check(http.MethodGet, blob, "", http.StatusNotFound)
	check(http.MethodGet, "/v1/lake/keys/absent/key", "", http.StatusNotFound)
	// The coordinator is the lake's only writer: every other method on
	// either path is refused, even carrying a well-formed upload, and
	// nothing lands in the store.
	bodies := map[string]string{
		blob:                     "absent",
		"/v1/lake/keys/some/key": `{"hash":"` + HashOf([]byte("absent")) + `"}`,
	}
	for path, body := range bodies {
		for _, method := range []string{http.MethodPut, http.MethodPost, http.MethodHead} {
			check(method, path, body, http.StatusMethodNotAllowed)
		}
	}
	if n := s.Bytes(); n != 0 {
		t.Fatalf("refused requests stored %d bytes", n)
	}
}
