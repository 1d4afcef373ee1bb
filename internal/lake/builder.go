package lake

import (
	"context"
	"encoding/json"
	"time"

	"repro/internal/capi"
	"repro/internal/inject"
	"repro/internal/shard"
)

// backend abstracts where the lake lives: in-process (the coordinator
// owns the Store) or across the wire (workers speak capi to the
// coordinator's lake endpoints). Builder and Partials implement the
// shard seams identically over either.
type backend interface {
	claim(ctx context.Context, key, owner string) (capi.LakeClaimReply, error)
	resolve(ctx context.Context, key string) (hash string, ok bool, err error)
	fetch(ctx context.Context, hash string) ([]byte, error)
	// publish uploads data and durably binds key to it (releasing any
	// claim on key).
	publish(ctx context.Context, key string, data []byte) error
}

// storeBackend serves a coordinator-local Store.
type storeBackend struct{ s *Store }

func (b storeBackend) claim(_ context.Context, key, owner string) (capi.LakeClaimReply, error) {
	cs, err := b.s.Claim(key, owner)
	return capi.LakeClaimReply{State: cs.State, Hash: cs.Hash, Holder: cs.Holder, TTLMS: cs.TTLMS}, err
}

func (b storeBackend) resolve(_ context.Context, key string) (string, bool, error) {
	hash, ok := b.s.Resolve(key)
	return hash, ok, nil
}

func (b storeBackend) fetch(_ context.Context, hash string) ([]byte, error) {
	return b.s.Get(hash)
}

func (b storeBackend) publish(_ context.Context, key string, data []byte) error {
	hash, err := b.s.Put(data)
	if err != nil {
		return err
	}
	return b.s.Link(key, hash)
}

// clientBackend speaks the lake endpoints through a capi.Client.
type clientBackend struct{ c *capi.Client }

func (b clientBackend) claim(ctx context.Context, key, owner string) (capi.LakeClaimReply, error) {
	return b.c.LakeClaim(ctx, key, owner)
}

func (b clientBackend) resolve(ctx context.Context, key string) (string, bool, error) {
	return b.c.LakeResolve(ctx, key)
}

func (b clientBackend) fetch(ctx context.Context, hash string) ([]byte, error) {
	return b.c.GetArtifact(ctx, hash)
}

func (b clientBackend) publish(ctx context.Context, key string, data []byte) error {
	hash := HashOf(data)
	if err := b.c.PutArtifact(ctx, hash, data); err != nil {
		return err
	}
	return b.c.LakeLink(ctx, key, hash)
}

// Builder is the lake-backed shard.Builder: claim-or-fetch a campaign's
// golden artifact before building, publish after a real build, and fall
// back to a plain local build on ANY lake error — the lake accelerates
// the fleet, it never gates correctness, so a Builder result is always
// bit-identical to shard.BuildLocal's.
type Builder struct {
	lake  backend
	owner string
	// m, when non-nil, counts golden hits/misses on the caller's registry
	// (workers; a coordinator-local Store counts its own).
	m *Metrics
	// poll and maxWait pace the held-claim loop: how often to re-ask
	// whether the claiming builder published, and how long before giving
	// up and building locally anyway.
	poll    time.Duration
	maxWait time.Duration
}

// NewStoreBuilder returns a Builder over a coordinator-local Store.
func NewStoreBuilder(s *Store, owner string) *Builder {
	return &Builder{lake: storeBackend{s: s}, owner: owner}
}

// NewClientBuilder returns a Builder speaking to a remote lake through
// c. m (may be nil) receives this process's hit/miss/fetch counts.
func NewClientBuilder(c *capi.Client, owner string, m *Metrics) *Builder {
	return &Builder{lake: clientBackend{c: c}, owner: owner, m: m}
}

// SetWait overrides the held-claim pacing (tests use short values).
func (b *Builder) SetWait(poll, maxWait time.Duration) {
	b.poll, b.maxWait = poll, maxWait
}

func (b *Builder) pollEvery() time.Duration {
	if b.poll > 0 {
		return b.poll
	}
	return 250 * time.Millisecond
}

func (b *Builder) waitBudget() time.Duration {
	if b.maxWait > 0 {
		return b.maxWait
	}
	return DefaultClaimTTL
}

// Build implements shard.Builder.
func (b *Builder) Build(cs shard.CampaignSpec, tune func(*inject.Options)) (*shard.Built, bool, error) {
	ctx := context.Background()
	gfp, err := cs.GoldenFingerprint()
	if err != nil {
		return nil, false, err
	}
	key := GoldenKey(gfp)
	deadline := time.Now().Add(b.waitBudget())
	for {
		reply, err := b.lake.claim(ctx, key, b.owner)
		if err != nil {
			break // lake down: build locally, skip publishing
		}
		switch reply.State {
		case capi.ClaimArtifact:
			start := time.Now()
			blob, err := b.lake.fetch(ctx, reply.Hash)
			if err != nil {
				// Fetch raced an eviction or the lake died; locally is fine.
				b.m.Miss("golden")
				return b.buildAndPublish(ctx, cs, tune, key)
			}
			built, err := shard.BuildFromGolden(cs, tune, blob)
			if err != nil {
				// A corrupt or mismatched artifact must never install wrong
				// golden state — rebuild locally and republish to heal the key.
				b.m.Miss("golden")
				return b.buildAndPublish(ctx, cs, tune, key)
			}
			b.m.Hit("golden")
			b.m.ObserveFetch(time.Since(start))
			return built, true, nil
		case capi.ClaimGranted:
			b.m.Miss("golden")
			return b.buildAndPublish(ctx, cs, tune, key)
		case capi.ClaimHeld:
			// Someone else is building. Waiting costs less than a duplicate
			// golden run — but only up to the budget: if the holder died, its
			// claim expires and a re-claim is granted; if the lake lies, we
			// build locally rather than stall the shard.
			if time.Now().After(deadline) {
				b.m.Miss("golden")
				return b.buildAndPublish(ctx, cs, tune, key)
			}
			time.Sleep(b.pollEvery())
		default:
			return b.buildAndPublish(ctx, cs, tune, key)
		}
	}
	built, err := shard.BuildLocal(cs, tune)
	return built, false, err
}

// buildAndPublish is the real-build leg: simulate the golden run locally
// and best-effort publish the artifact for the rest of the fleet.
func (b *Builder) buildAndPublish(ctx context.Context, cs shard.CampaignSpec, tune func(*inject.Options), key string) (*shard.Built, bool, error) {
	built, err := shard.BuildLocal(cs, tune)
	if err != nil {
		return nil, false, err
	}
	if blob, err := shard.EncodeBuilt(built); err == nil {
		// Publish failures are swallowed: at worst another process also
		// builds, which is exactly the no-lake behavior.
		_ = b.lake.publish(ctx, key, blob)
	}
	return built, false, nil
}

// Partials is the lake-backed shard.PartialCache: finished shard
// results promoted to durable fleet-wide cache objects, reused by
// overlapping future sweeps without re-simulation. Both methods are
// best-effort by contract — every lake error reads as a miss.
type Partials struct {
	lake backend
	m    *Metrics
}

// NewStorePartials returns a PartialCache over a coordinator-local Store.
func NewStorePartials(s *Store) *Partials {
	return &Partials{lake: storeBackend{s: s}}
}

// NewClientPartials returns a PartialCache speaking to a remote lake.
func NewClientPartials(c *capi.Client, m *Metrics) *Partials {
	return &Partials{lake: clientBackend{c: c}, m: m}
}

// GetPartial implements shard.PartialCache.
func (p *Partials) GetPartial(fp string, start, end int) *shard.Partial {
	ctx := context.Background()
	key := PartialKey(fp, start, end)
	t0 := time.Now()
	hash, ok, err := p.lake.resolve(ctx, key)
	if err != nil || !ok {
		p.m.Miss("partial")
		return nil
	}
	blob, err := p.lake.fetch(ctx, hash)
	if err != nil {
		p.m.Miss("partial")
		return nil
	}
	var partial shard.Partial
	if err := json.Unmarshal(blob, &partial); err != nil {
		p.m.Miss("partial")
		return nil
	}
	// A published object that does not actually describe (fp, start, end)
	// must never be adopted — it would silently corrupt a merge. The same
	// goes for a blob whose integrity checksum no longer matches its
	// bytes: a damaged lake object reads as a miss and re-simulates.
	if partial.Start != start || partial.End != end || partial.Verify() != nil {
		p.m.Miss("partial")
		return nil
	}
	p.m.Hit("partial")
	p.m.ObserveFetch(time.Since(t0))
	return &partial
}

// PutPartial implements shard.PartialCache.
func (p *Partials) PutPartial(fp string, partial *shard.Partial) {
	blob, err := json.Marshal(partial)
	if err != nil {
		return
	}
	_ = p.lake.publish(context.Background(), PartialKey(fp, partial.Start, partial.End), blob)
}
