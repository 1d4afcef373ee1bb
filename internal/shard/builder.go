package shard

import (
	"bytes"

	"repro/internal/fault"
	"repro/internal/inject"
	"repro/internal/riscv"
	"repro/internal/socgen"
)

// Builder is the executor's campaign-construction backend seam. The
// default backend simulates the golden run locally; an artifact-lake
// backend may instead fetch the campaign's serialized golden artifact
// from a fleet-wide store, falling back to a local build on any miss or
// lake error — the lake is an accelerator, never a correctness
// dependency, so a Builder implementation must always return a campaign
// whose results are bit-identical to BuildLocal's.
//
// fetched reports whether the golden run was adopted from an artifact
// rather than simulated here; the executor emits a "golden" trace span
// only for real builds, which is what lets a fleet assert that each golden
// run (one per golden spec, see GoldenFingerprint) happened exactly once
// anywhere.
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

// EncodeBuilt serializes the campaign's golden-run artifact — the blob
// the coordinator's lake Builder publishes after a local build. The bytes are a pure
// function of the golden spec and the checkpoint pitch, so they are
// stable under content addressing and equal across every campaign sharing
// a GoldenFingerprint.
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
	return build(cs, tune, func(cfg socgen.Config, prog riscv.Program, db *fault.DB, opts inject.Options) (*inject.SoCRun, error) {
		return inject.PrepareSoCFromGolden(cfg, prog, db, opts, artifact)
	})
}
