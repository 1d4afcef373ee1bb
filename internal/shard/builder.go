package shard

import (
	"bytes"

	"repro/internal/fault"
	"repro/internal/inject"
	"repro/internal/socgen"
)

// Builder is the executor's campaign-construction backend seam. The
// default backend simulates the golden run locally; an artifact-lake
// backend may instead claim-or-fetch the campaign's serialized golden
// artifact from a fleet-wide store, falling back to a local build on any
// lake error — the lake is an accelerator, never a correctness
// dependency, so a Builder implementation must always return a campaign
// whose results are bit-identical to BuildLocal's.
//
// fetched reports whether the golden run was adopted from an artifact
// rather than simulated here; the executor emits a "golden" trace span
// only for real builds, which is what lets a fleet assert that a
// campaign's golden run happened exactly once anywhere.
type Builder interface {
	Build(cs CampaignSpec, tune func(*inject.Options)) (b *Built, fetched bool, err error)
}

// LocalBuilder is the default Builder: BuildLocal on every call.
type LocalBuilder struct{}

// Build implements Builder.
func (LocalBuilder) Build(cs CampaignSpec, tune func(*inject.Options)) (*Built, bool, error) {
	b, err := BuildLocal(cs, tune)
	return b, false, err
}

// EncodeBuilt serializes the campaign's golden-run artifact — the blob a
// lake Builder publishes after a local build. The bytes are a pure
// function of the campaign spec, so they are stable under content
// addressing.
func EncodeBuilt(b *Built) ([]byte, error) {
	var buf bytes.Buffer
	if err := b.Run.Campaign.EncodeGolden(&buf, b.Run.Result.GoldenEvals); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// BuildFromGolden is BuildLocal with the golden run adopted from a
// serialized artifact instead of simulated. A corrupt or mismatched
// artifact is an error; callers fall back to BuildLocal.
func BuildFromGolden(cs CampaignSpec, tune func(*inject.Options), artifact []byte) (*Built, error) {
	if err := cs.Validate(); err != nil {
		return nil, err
	}
	cfg, err := socgen.ConfigByIndex(cs.SoC)
	if err != nil {
		return nil, err
	}
	prog, err := WorkloadProgram(cs.Workload)
	if err != nil {
		return nil, err
	}
	opts := cs.Options()
	if tune != nil {
		tune(&opts)
	}
	run, err := inject.PrepareSoCFromGolden(cfg, prog, fault.DefaultDB(), opts, artifact)
	if err != nil {
		return nil, err
	}
	fp, err := cs.Fingerprint()
	if err != nil {
		return nil, err
	}
	return &Built{
		Spec:        cs,
		Fingerprint: fp,
		Run:         run,
		Jobs:        run.Campaign.DrawJobs(),
	}, nil
}
