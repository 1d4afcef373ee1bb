package lake

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

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

// TestStoreClaimProtocol: grant, hold, expiry, and release-on-publish.
func TestStoreClaimProtocol(t *testing.T) {
	s := openStore(t, t.TempDir(), 0)
	now := time.Unix(1000, 0)
	s.now = func() time.Time { return now }
	s.SetClaimTTL(10 * time.Second)
	key := GoldenKey("fpA")

	cs, err := s.Claim(key, "worker-1")
	if err != nil || cs.State != "granted" {
		t.Fatalf("first claim: %+v, %v", cs, err)
	}
	cs, err = s.Claim(key, "worker-2")
	if err != nil || cs.State != "held" || cs.Holder != "worker-1" {
		t.Fatalf("second claim: %+v, %v", cs, err)
	}
	// The same owner re-claiming refreshes rather than waits on itself.
	cs, err = s.Claim(key, "worker-1")
	if err != nil || cs.State != "granted" {
		t.Fatalf("re-claim by holder: %+v, %v", cs, err)
	}
	// A dead builder's claim expires.
	now = now.Add(11 * time.Second)
	cs, err = s.Claim(key, "worker-2")
	if err != nil || cs.State != "granted" {
		t.Fatalf("claim after expiry: %+v, %v", cs, err)
	}
	// Publishing releases the claim and flips the outcome to "artifact".
	hash, err := s.Put([]byte("the golden build"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Link(key, hash); err != nil {
		t.Fatal(err)
	}
	cs, err = s.Claim(key, "worker-3")
	if err != nil || cs.State != "artifact" || cs.Hash != hash {
		t.Fatalf("claim after publish: %+v, %v", cs, err)
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
	if _, err := s.Claim("golden/fp", "w"); err != ErrUnavailable {
		t.Fatalf("Claim on failed store: %v", err)
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
	hash := HashOf(data)

	if _, ok, err := c.HeadArtifact(ctx, hash); err != nil || ok {
		t.Fatalf("HEAD before upload: %v, %v", ok, err)
	}
	if err := c.PutArtifact(ctx, hash, data); err != nil {
		t.Fatal(err)
	}
	// A body that does not hash to the URL must be rejected, not stored.
	if err := c.PutArtifact(ctx, hash, []byte("different")); err == nil {
		t.Fatal("mismatched upload accepted")
	}
	got, err := c.GetArtifact(ctx, hash)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("GET: %v", err)
	}
	if size, ok, err := c.HeadArtifact(ctx, hash); err != nil || !ok || size != int64(len(data)) {
		t.Fatalf("HEAD after upload: %d, %v, %v", size, ok, err)
	}

	key := GoldenKey("fpHTTP")
	if _, ok, err := c.LakeResolve(ctx, key); err != nil || ok {
		t.Fatalf("resolve before link: %v, %v", ok, err)
	}
	reply, err := c.LakeClaim(ctx, key, "worker-1")
	if err != nil || reply.State != capi.ClaimGranted {
		t.Fatalf("claim: %+v, %v", reply, err)
	}
	if err := c.LakeLink(ctx, key, hash); err != nil {
		t.Fatal(err)
	}
	gotHash, ok, err := c.LakeResolve(ctx, key)
	if err != nil || !ok || gotHash != hash {
		t.Fatalf("resolve after link: %s, %v, %v", gotHash, ok, err)
	}
	reply, err = c.LakeClaim(ctx, key, "worker-2")
	if err != nil || reply.State != capi.ClaimArtifact || reply.Hash != hash {
		t.Fatalf("claim after publish: %+v, %v", reply, err)
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

	b1 := NewStoreBuilder(s, "builder-1")
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

// TestBuilderRejectsPoisonedArtifact: a key pointing at bytes that are
// not a valid golden artifact must fall back to a local build, count that
// build as the builder's golden miss (the store already counted the claim
// as a hit), then heal the key by republishing.
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
	built, fetched, err := NewStoreBuilder(s, "builder-1").Build(cs, nil)
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
	if _, fetched, err := NewStoreBuilder(s, "builder-2").Build(cs, nil); err != nil || !fetched {
		t.Fatalf("second builder did not adopt the healed artifact: fetched=%v err=%v", fetched, err)
	}
}

// TestBuilderHeldClaimWait: a held claim is polled until the holder
// publishes, then fetched — the shared-build path two workers race on.
func TestBuilderHeldClaimWait(t *testing.T) {
	s := openStore(t, t.TempDir(), 0)
	cs := lakeSpec()
	key := goldenKeyOf(t, cs)
	if _, err := s.Claim(key, "other-builder"); err != nil {
		t.Fatal(err)
	}

	// The holder publishes a real artifact shortly after.
	ref, err := shard.BuildLocal(cs, nil)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := shard.EncodeBuilt(ref)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		hash, err := s.Put(blob)
		if err != nil {
			return
		}
		_ = s.Link(key, hash)
	}()

	b := NewStoreBuilder(s, "waiting-builder")
	b.SetWait(10*time.Millisecond, 5*time.Second)
	built, fetched, err := b.Build(cs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !fetched {
		t.Fatal("waiting builder rebuilt instead of adopting the published artifact")
	}
	if built == nil {
		t.Fatal("no campaign")
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
	p.PutPartial("fpP", orig)

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
	p.PutPartial("fpP", orig) // must not panic or error
}

// TestHTTPRejectsBadInput covers the surface's refusal paths.
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
	check(http.MethodPut, "/v1/artifacts/nothex", "x", http.StatusBadRequest)
	check(http.MethodGet, "/v1/artifacts/"+HashOf([]byte("absent")), "", http.StatusNotFound)
	check(http.MethodPost, "/v1/artifacts/"+HashOf([]byte("x")), "x", http.StatusMethodNotAllowed)
	check(http.MethodGet, "/v1/lake/keys/absent/key", "", http.StatusNotFound)
	claimBody, _ := json.Marshal(capi.LakeClaimRequest{Owner: ""})
	check(http.MethodPost, "/v1/lake/claims/some/key", string(claimBody), http.StatusBadRequest)
	linkBody, _ := json.Marshal(capi.LakeLinkRequest{Hash: HashOf([]byte("absent"))})
	check(http.MethodPut, "/v1/lake/keys/some/key", string(linkBody), http.StatusNotFound)
	check(http.MethodPut, "/v1/lake/keys/other/key", "{bad json", http.StatusBadRequest)
}
