// Package shard turns a fault-injection campaign into distributable,
// restartable work units. A campaign's injection plan is fully drawn
// before any fan-out (inject.Campaign.DrawJobs), so sharding is a pure
// split of the plan's index range: every worker process rebuilds the
// identical campaign — design, golden run, checkpoint schedule, plan —
// from a self-contained CampaignSpec and executes disjoint [start,end)
// slices of it. Partial results merge into a Result that is bit-identical
// to the single-process campaign for any shard count and any completion
// order, which is the determinism gate TestShardedCampaignDeterminism
// pins alongside the warm-start gates in internal/inject.
package shard

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/inject"
	"repro/internal/riscv"
	"repro/internal/sim"
	"repro/internal/socgen"
)

// WorkloadProgram maps a workload kernel name to the RISC-V program every
// campaign component (coordinator, workers, local sharded runs) must
// agree on; the sizes are the ones cmd/socfault has always used.
func WorkloadProgram(name string) (riscv.Program, error) {
	switch name {
	case "memcpy":
		return riscv.MemcpyProgram(16), nil
	case "dot":
		return riscv.DotProductProgram(16), nil
	case "crc":
		return riscv.CRCProgram(12), nil
	case "sort":
		return riscv.SortProgram(12), nil
	case "fib":
		return riscv.FibProgram(20), nil
	}
	return riscv.Program{}, fmt.Errorf("shard: unknown workload %q (want memcpy, dot, crc, sort or fib)", name)
}

// CampaignSpec is the self-contained, wire-format description of one
// campaign: which Table I benchmark, which workload kernel, and the
// inject.Params that name everything else — every option that influences
// the drawn plan or the verdicts. The embedded Params encode inline, so
// the JSON (and the fingerprint over it) is SoC, workload, then the
// parameters in their declared order. Two processes holding equal specs
// build bit-identical campaigns. The golden run reads only part of the
// spec, the golden spec hashed by GoldenFingerprint, so campaigns that
// differ in seeds, environment or sample share one golden artifact.
// Worker-count and checkpoint-pitch knobs are deliberately absent: they
// change how much work execution performs, never any verdict or
// statistic, and each process picks its own.
// Consequently the merged work counters (InjectEvals, WarmStarts,
// PrunedRuns) reflect whatever pitch each executing process actually
// used; they match the single-process run exactly when every process
// runs the default pitch, which is what the determinism gates pin.
type CampaignSpec struct {
	SoC      int    `json:"soc"`
	Workload string `json:"workload"`
	inject.Params
}

// SpecFromOptions lifts campaign options into a spec for the given
// benchmark and workload kernel.
func SpecFromOptions(soc int, workload string, o inject.Options) CampaignSpec {
	return CampaignSpec{SoC: soc, Workload: workload, Params: o.Params}
}

// Options lowers the spec back into campaign options. Function hooks and
// per-process knobs (Workers, CheckpointEveryCycles) stay at their
// defaults; inject.PrepareSoC fills the benchmark's weight model.
func (cs CampaignSpec) Options() inject.Options {
	return inject.Options{Params: cs.Params}
}

// Validate rejects specs that could not build a campaign, with errors a
// CLI user can act on.
func (cs CampaignSpec) Validate() error {
	if _, err := socgen.ConfigByIndex(cs.SoC); err != nil {
		return err
	}
	if _, err := WorkloadProgram(cs.Workload); err != nil {
		return err
	}
	switch cs.Engine {
	case sim.KindEvent, sim.KindLevel:
	default:
		return fmt.Errorf("shard: unknown engine %q (want %s or %s)", cs.Engine, sim.KindEvent, sim.KindLevel)
	}
	if cs.SampleFrac <= 0 || cs.SampleFrac > 1 {
		return fmt.Errorf("shard: sample fraction %g out of (0,1]", cs.SampleFrac)
	}
	if cs.KN < 1 || cs.LN < 1 {
		return fmt.Errorf("shard: KN/LN must be positive (got %d/%d)", cs.KN, cs.LN)
	}
	if cs.Flux < 0 || cs.ExposureS < 0 {
		return fmt.Errorf("shard: negative flux or exposure")
	}
	return nil
}

// Fingerprint is the campaign's identity: a hash over the canonical JSON
// encoding of the spec (design + workload + options + seed). The runstore
// journal and the coordinator/worker protocol key everything on it, so a
// journal or a worker can never mix shards of different campaigns.
func (cs CampaignSpec) Fingerprint() (string, error) {
	return hashJSON(cs)
}

// GoldenFingerprint is the identity of the campaign's golden run: a hash
// over everything that run reads — the benchmark, the workload, the engine
// and the two switches deciding whether it snapshots checkpoints and dumps
// VCD. Campaigns that differ only in seeds, environment, clustering or
// sample share it; the artifact lake keys golden artifacts on it, so one
// golden build serves every point of an LET or flux sweep.
func (cs CampaignSpec) GoldenFingerprint() (string, error) {
	return hashJSON(struct {
		SoC        int            `json:"soc"`
		Workload   string         `json:"workload"`
		Engine     sim.EngineKind `json:"engine"`
		ColdStart  bool           `json:"cold_start"`
		CompareVCD bool           `json:"compare_vcd"`
	}{cs.SoC, cs.Workload, cs.Engine, cs.ColdStart, cs.CompareVCD})
}

// hashJSON is the hex sha256 of v's JSON encoding.
func hashJSON(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("shard: marshaling spec: %v", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Short truncates a fingerprint to the 12-hex prefix used everywhere a
// human reads one (logs, traces, metric labels).
func Short(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	return fp
}

// Spec is one shard: a campaign identity plus a half-open injection index
// range of its drawn plan.
type Spec struct {
	Campaign    CampaignSpec `json:"campaign"`
	Fingerprint string       `json:"fingerprint"`
	Index       int          `json:"index"`
	NumShards   int          `json:"num_shards"`
	Start       int          `json:"start"`
	End         int          `json:"end"`
}

// Plan splits a campaign's totalJobs-long injection plan into numShards
// contiguous, balanced shards. Shard sizes differ by at most one; every
// shard is non-empty, so numShards may not exceed totalJobs.
func Plan(cs CampaignSpec, numShards, totalJobs int) ([]Spec, error) {
	if numShards < 1 {
		return nil, fmt.Errorf("shard: shard count %d must be at least 1", numShards)
	}
	if totalJobs < 1 {
		return nil, fmt.Errorf("shard: campaign plan holds no injections")
	}
	if numShards > totalJobs {
		return nil, fmt.Errorf("shard: shard count %d exceeds the campaign's %d planned injections", numShards, totalJobs)
	}
	fp, err := cs.Fingerprint()
	if err != nil {
		return nil, err
	}
	specs := make([]Spec, numShards)
	base, rem := totalJobs/numShards, totalJobs%numShards
	start := 0
	for i := range specs {
		n := base
		if i < rem {
			n++
		}
		specs[i] = Spec{
			Campaign:    cs,
			Fingerprint: fp,
			Index:       i,
			NumShards:   numShards,
			Start:       start,
			End:         start + n,
		}
		start += n
	}
	return specs, nil
}

// PlanAtMost is Plan with the shard count clamped to the plan size — the
// right call for a sweep, where one -shards knob covers campaigns of very
// different sample volumes and a tiny campaign should degrade to fewer
// (larger) shards instead of failing the whole grid.
func PlanAtMost(cs CampaignSpec, numShards, totalJobs int) ([]Spec, error) {
	if numShards > totalJobs {
		numShards = totalJobs
	}
	return Plan(cs, numShards, totalJobs)
}
