package sweep

import (
	"fmt"

	"repro/internal/inject"
	"repro/internal/runstore"
	"repro/internal/shard"
)

// LocalOptions tunes RunLocal. Everything here is per-process execution
// shape — none of it reaches the campaign fingerprints, so a locally-run
// sweep and a coordinated one journal and merge interchangeably.
type LocalOptions struct {
	// Shards is the per-campaign shard count (minimum 1); campaigns with
	// fewer planned injections degrade to fewer shards.
	Shards int
	// Journal appends every completed shard to this runstore file; Resume
	// reloads it first and skips recorded shards.
	Journal string
	Resume  bool
	// Checkpoint overrides the golden checkpoint pitch (0 = default).
	Checkpoint int
	// Logf receives per-campaign progress lines (a Single sweep's only
	// line is its resume notice); nil is silent.
	Logf func(format string, args ...any)
}

// RunLocal executes every campaign of a sweep in this process, sharded,
// journaled and resumable, and returns the merged results keyed by
// campaign fingerprint — the map Grid.Render consumes. Campaigns run in
// sweep order, each built once, executed shard by shard and merged
// bit-identically to its single-process run; the journal is namespaced
// per fingerprint, so one file covers the whole grid and a killed sweep
// resumes mid-campaign without re-running any journaled shard. The same
// journal also resumes under a campaignd sweep coordinator, and vice
// versa.
func RunLocal(ss SweepSpec, o LocalOptions) (map[string]*inject.Result, error) {
	if err := ss.Validate(); err != nil {
		return nil, err
	}
	if o.Shards < 1 {
		o.Shards = 1
	}
	logf := o.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	// A run that asked for a journal must not outlive it: the first failed
	// append aborts the sweep. A resume restores what Open read.
	held := shard.MemPartials{}
	var store *runstore.Store
	if o.Journal != "" {
		var err error
		if store, err = runstore.Open(o.Journal); err != nil {
			return nil, err
		}
		defer store.Close()
		if o.Resume {
			fold := store.Fold()
			held = fold.Partials
			if fold.Dropped > 0 {
				logf("sweep: journal %s: skipped %d record(s) with integrity checksum mismatch; those shards re-simulate", o.Journal, fold.Dropped)
			}
		}
	}

	results := make(map[string]*inject.Result, len(ss.Items))
	for _, it := range ss.Items {
		b, err := shard.BuildLocal(it.Campaign, func(opts *inject.Options) {
			opts.CheckpointEveryCycles = o.Checkpoint
		})
		if err != nil {
			return nil, fmt.Errorf("sweep: campaign %q: %v", it.Key, err)
		}
		specs, err := ss.Plan(it.Campaign, o.Shards, len(b.Jobs))
		if err != nil {
			return nil, fmt.Errorf("sweep: campaign %q: %v", it.Key, err)
		}
		partials := make([]*shard.Partial, len(specs))
		resumed := 0
		for i, sp := range specs {
			if partials[i] = shard.Adopt(held, sp); partials[i] != nil {
				resumed++
				continue
			}
			if partials[i], err = shard.ExecuteOn(b, sp); err != nil {
				return nil, fmt.Errorf("sweep: campaign %q shard %d: %v", it.Key, sp.Index, err)
			}
			if store != nil {
				if err := store.Append(b.Fingerprint, partials[i]); err != nil {
					return nil, err
				}
			}
		}
		res, err := shard.Merge(b, partials)
		if err != nil {
			return nil, fmt.Errorf("sweep: campaign %q: %v", it.Key, err)
		}
		results[b.Fingerprint] = res
		switch {
		case !ss.Single:
			logf("sweep: campaign %s (%.12s): %d injections in %d shards, %d resumed from journal",
				it.Key, b.Fingerprint, len(res.Injections), len(specs), resumed)
		case resumed > 0:
			logf("resumed %d of %d shards from %s", resumed, len(specs), o.Journal)
		}
	}
	return results, nil
}
