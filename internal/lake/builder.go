package lake

import (
	"context"
	"errors"
	"time"

	"repro/internal/capi"
	"repro/internal/inject"
	"repro/internal/shard"
)

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
//
// The coordinator plans and merges but never executes a shard, so its
// store builder adopts an artifact for planning only
// (shard.BuildForPlanning): it checks the artifact down to each nested
// checkpoint's header, which still refuses a stale pitch or codec, but
// decodes no checkpoint. Workers adopt in full.
type Builder struct {
	// read returns the blob bound to a key; ErrNotFound is a clean miss,
	// any other error a lake failure.
	read func(key string) ([]byte, error)
	// adopt turns a fetched artifact into a campaign.
	adopt func(shard.CampaignSpec, func(*inject.Options), []byte) (*shard.Built, error)
	// publish, when set, receives the artifact of every local build.
	publish func(key string, blob []byte) error
	// m, when non-nil, counts golden hits/misses on the caller's registry
	// (workers, so -push federates them; a coordinator-local Store counts
	// its own).
	m *Metrics
}

// NewStoreBuilder returns the coordinator's Builder over its Store: it
// reads the store in process, adopts for planning and publishes.
func NewStoreBuilder(s *Store) *Builder {
	read := func(key string) ([]byte, error) {
		_, blob, err := s.lookup(key)
		return blob, err
	}
	return &Builder{read: read, adopt: shard.BuildForPlanning, publish: s.publish}
}

// NewClientBuilder returns a worker's fetch-only Builder speaking to a
// remote lake through c: one GET per golden, adopted in full. m (may be
// nil) receives this process's hit/miss/fetch counts. The worker name is
// unused: workers never write.
func NewClientBuilder(c *capi.Client, _ string, m *Metrics) *Builder {
	read := func(key string) ([]byte, error) {
		blob, ok, err := c.LakeGet(context.TODO(), key)
		if err == nil && !ok {
			err = ErrNotFound
		}
		return blob, err
	}
	return &Builder{read: read, adopt: shard.BuildFromGolden, m: m}
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
	if b.publish != nil {
		if blob, err := shard.EncodeBuilt(built); err == nil {
			// A failed publish is swallowed: the next build of this golden
			// simulates again, which is exactly the no-lake behavior.
			_ = b.publish(key, blob)
		}
	}
	return built, false, nil
}

// fetch adopts the artifact published under key, or returns nil. A lake
// error counts nothing; a missing, corrupt or mismatched artifact counts
// one golden miss and must never install wrong golden state.
func (b *Builder) fetch(cs shard.CampaignSpec, tune func(*inject.Options), key string) *shard.Built {
	start := time.Now()
	blob, err := b.read(key)
	if err != nil && !errors.Is(err, ErrNotFound) {
		return nil
	}
	if err == nil {
		if built, err := b.adopt(cs, tune, blob); err == nil {
			b.m.hit("golden")
			b.m.observeFetch(time.Since(start))
			return built
		}
	}
	b.m.miss("golden")
	return nil
}

// NewClientPartials returns an empty partial cache. Workers hold no
// finished partials: the coordinator restores them from its own store
// (Store.GetPartial), and Executor.SetPartialCache ignores its argument.
func NewClientPartials(*capi.Client, *Metrics) shard.MemPartials { return shard.MemPartials{} }
