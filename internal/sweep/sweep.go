// Package sweep serves whole experiment grids from one distributed
// queue. The paper's headline results are grids of campaigns — Table I
// runs every SoC benchmark, Table III crosses fluxes with engines, the
// LET sweep re-runs one benchmark at each tabulated LET — and a
// SweepSpec enumerates such a grid as an ordered list of
// shard.CampaignSpecs, each with its own fingerprint. A cross-campaign
// Pool interleaves every campaign's shards into a single lease pool with
// golden-run-affinity ordering (a worker keeps draining the campaign
// whose golden run it has already built and cached before switching
// fingerprints), campaigns merge independently the moment their last
// shard lands, and the merged results feed back into the ssresf
// renderers bit-identically to the in-process drivers. One runstore
// journal holds the whole sweep, namespaced per campaign fingerprint,
// so a killed sweep — local or coordinated — resumes without re-running
// any journaled shard.
package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/shard"
)

// Item is one campaign of a sweep: a human-meaningful key (unique within
// the sweep, used for progress lines and per-campaign output files) and
// the self-contained campaign description.
type Item struct {
	Key      string             `json:"key"`
	Campaign shard.CampaignSpec `json:"campaign"`
}

// SweepSpec is the wire-format description of one experiment grid: an
// ordered list of campaigns. Order matters twice — it is the campaign
// build/open order of a coordinator and the scan order of schedulers and
// aggregators — so two processes holding equal specs drive identical
// sweeps.
type SweepSpec struct {
	Name  string `json:"name"`
	Items []Item `json:"items"`
	// Single marks the degenerate sweep CampaignGrid builds: one campaign
	// run for its own sake, not a grid. It plans strictly (see Plan) and a
	// coordinator journals it by its campaign spec.
	Single bool `json:"single,omitempty"`
}

// Plan splits a member campaign's totalJobs-long injection plan into
// shards. A grid's one shard-count knob covers campaigns of very
// different sizes, so a tiny campaign degrades to fewer (larger) shards
// instead of failing the whole grid; a Single sweep has only itself to
// accommodate and keeps shard.Plan's strict fail-fast validation.
func (ss SweepSpec) Plan(cs shard.CampaignSpec, shards, totalJobs int) ([]shard.Spec, error) {
	if ss.Single {
		return shard.Plan(cs, shards, totalJobs)
	}
	return shard.PlanAtMost(cs, shards, totalJobs)
}

// Validate rejects sweeps that could not execute: empty grids, invalid
// member campaigns, duplicate keys, and duplicate campaigns. Duplicate
// campaign fingerprints are rejected because the journal and the
// coordinator protocol route everything by fingerprint; a grid that
// wants the same campaign twice should reference one run's result twice
// instead.
func (ss SweepSpec) Validate() error {
	if len(ss.Items) == 0 {
		return fmt.Errorf("sweep: spec %q holds no campaigns", ss.Name)
	}
	keys := make(map[string]bool, len(ss.Items))
	fps := make(map[string]string, len(ss.Items))
	for _, it := range ss.Items {
		if it.Key == "" {
			return fmt.Errorf("sweep: %q: campaign with empty key", ss.Name)
		}
		if keys[it.Key] {
			return fmt.Errorf("sweep: %q: duplicate campaign key %q", ss.Name, it.Key)
		}
		keys[it.Key] = true
		if err := it.Campaign.Validate(); err != nil {
			return fmt.Errorf("sweep: %q: campaign %q: %v", ss.Name, it.Key, err)
		}
		fp, err := it.Campaign.Fingerprint()
		if err != nil {
			return fmt.Errorf("sweep: %q: campaign %q: %v", ss.Name, it.Key, err)
		}
		if prev, ok := fps[fp]; ok {
			return fmt.Errorf("sweep: %q: campaigns %q and %q are identical (fingerprint %.12s)", ss.Name, prev, it.Key, fp)
		}
		fps[fp] = it.Key
	}
	return nil
}

// Fingerprint is the sweep's identity: a hash over the member campaign
// fingerprints in sweep order (keys and name are presentation, not
// identity). Two sweeps with the same fingerprint lease out exactly the
// same shard universe.
func (ss SweepSpec) Fingerprint() (string, error) {
	h := sha256.New()
	for _, it := range ss.Items {
		fp, err := it.Campaign.Fingerprint()
		if err != nil {
			return "", fmt.Errorf("sweep: %q: campaign %q: %v", ss.Name, it.Key, err)
		}
		h.Write([]byte(fp))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Fingerprints returns the member campaign fingerprints as a set — the
// shape runstore.CountAny consumes.
func (ss SweepSpec) Fingerprints() (map[string]bool, error) {
	out := make(map[string]bool, len(ss.Items))
	for _, it := range ss.Items {
		fp, err := it.Campaign.Fingerprint()
		if err != nil {
			return nil, fmt.Errorf("sweep: %q: campaign %q: %v", ss.Name, it.Key, err)
		}
		out[fp] = true
	}
	return out, nil
}
