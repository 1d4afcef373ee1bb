package lake

import (
	"context"
	"encoding/json"
	"time"

	"repro/internal/capi"
	"repro/internal/inject"
	"repro/internal/shard"
)

// backend abstracts where the lake is read from: in-process (the
// coordinator owns the Store) or across the wire (workers speak capi to
// the coordinator's lake endpoints). Builder and Partials read through
// either identically; only the coordinator writes, straight to its Store.
type backend interface {
	resolve(ctx context.Context, key string) (hash string, ok bool, err error)
	fetch(ctx context.Context, hash string) ([]byte, error)
}

// storeBackend serves a coordinator-local Store.
type storeBackend struct{ s *Store }

func (b storeBackend) resolve(_ context.Context, key string) (string, bool, error) {
	hash, ok := b.s.Resolve(key)
	return hash, ok, nil
}

func (b storeBackend) fetch(_ context.Context, hash string) ([]byte, error) {
	return b.s.Get(hash)
}

// clientBackend speaks the lake endpoints through a capi.Client.
type clientBackend struct{ c *capi.Client }

func (b clientBackend) resolve(ctx context.Context, key string) (string, bool, error) {
	return b.c.LakeResolve(ctx, key)
}

func (b clientBackend) fetch(ctx context.Context, hash string) ([]byte, error) {
	return b.c.GetArtifact(ctx, hash)
}

// Builder is the lake-backed shard.Builder: fetch a campaign's golden
// artifact, and build locally on any miss or lake error — the lake
// accelerates the fleet, it never gates correctness, so a Builder result
// is always bit-identical to shard.BuildLocal's.
//
// The coordinator is the lake's one writer. It builds and publishes every
// golden before any of the campaign's shards can be leased, so a worker
// that misses (an evicted or never-published key) just builds for itself,
// as a worker without a lake does. Only the coordinator's store builder
// publishes after a local build, which is also how a key bound to a
// corrupt or stale-codec artifact heals.
type Builder struct {
	lake backend
	// store is the coordinator's Store, which receives the artifact of
	// every local build; nil on workers.
	store *Store
	// m, when non-nil, counts golden hits/misses on the caller's registry
	// (workers; a coordinator-local Store counts its own).
	m *Metrics
}

// NewStoreBuilder returns the coordinator's Builder over its Store.
func NewStoreBuilder(s *Store) *Builder {
	return &Builder{lake: storeBackend{s: s}, store: s}
}

// NewClientBuilder returns a worker's fetch-only Builder speaking to a
// remote lake through c. m (may be nil) receives this process's
// hit/miss/fetch counts. The worker name is unused: workers never write.
func NewClientBuilder(c *capi.Client, _ string, m *Metrics) *Builder {
	return &Builder{lake: clientBackend{c: c}, m: m}
}

// Build implements shard.Builder.
func (b *Builder) Build(cs shard.CampaignSpec, tune func(*inject.Options)) (*shard.Built, bool, error) {
	gfp, err := cs.GoldenFingerprint()
	if err != nil {
		return nil, false, err
	}
	key := GoldenKey(gfp)
	if built := b.fetch(cs, tune, key); built != nil {
		return built, true, nil
	}
	built, err := shard.BuildLocal(cs, tune)
	if err != nil {
		return nil, false, err
	}
	if b.store != nil {
		if blob, err := shard.EncodeBuilt(built); err == nil {
			// A failed publish is swallowed: the next build of this golden
			// simulates again, which is exactly the no-lake behavior.
			_ = b.store.publish(key, blob)
		}
	}
	return built, false, nil
}

// fetch adopts the artifact published under key, or returns nil. A lake
// error counts nothing; a missing, unreadable, corrupt or mismatched
// artifact counts one golden miss and must never install wrong golden
// state.
func (b *Builder) fetch(cs shard.CampaignSpec, tune func(*inject.Options), key string) *shard.Built {
	ctx := context.Background()
	start := time.Now()
	hash, ok, err := b.lake.resolve(ctx, key)
	if err != nil {
		return nil
	}
	if ok {
		if blob, err := b.lake.fetch(ctx, hash); err == nil {
			if built, err := shard.BuildFromGolden(cs, tune, blob); err == nil {
				b.m.Hit("golden")
				b.m.ObserveFetch(time.Since(start))
				return built
			}
		}
	}
	b.m.Miss("golden")
	return nil
}

// Partials is the lake-backed shard.PartialCache: finished shard
// results the coordinator published (Store.PutPartial), reused by
// overlapping future sweeps without re-simulation. Every lake error
// reads as a miss.
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

// PutPartial publishes partial under (fp, its plan range); a failed
// publish is swallowed.
func (s *Store) PutPartial(fp string, partial *shard.Partial) {
	blob, err := json.Marshal(partial)
	if err != nil {
		return
	}
	_ = s.publish(PartialKey(fp, partial.Start, partial.End), blob)
}
