package inject

import (
	"bytes"
	"fmt"

	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/riscv"
	"repro/internal/socgen"
)

// SoCRun bundles everything a Table I campaign needs for one benchmark.
type SoCRun struct {
	Config   socgen.Config
	Flat     *netlist.Flat
	Plan     *socgen.StimulusPlan
	Campaign *Campaign
	Result   *Result
}

// WorkloadCycles is the default number of bus cycles each campaign
// simulates per run.
const WorkloadCycles = 32

// PrepareSoC generates the benchmark netlist, builds the workload stimulus
// and readies a campaign with the benchmark's representation weights.
func PrepareSoC(cfg socgen.Config, prog riscv.Program, db *fault.DB, opts Options) (*SoCRun, error) {
	return prepareSoC(cfg, prog, db, opts, (*Campaign).runGolden)
}

// PrepareSoCFromGolden is PrepareSoC with the golden run adopted from a
// serialized artifact (see EncodeGolden) instead of simulated: same
// netlist generation, stimulus and validation, but the campaign decodes
// the golden signature, eval count and checkpoint schedule from blob.
// A mismatched or corrupt blob is an error; callers fall back to
// PrepareSoC, which is always correct.
func PrepareSoCFromGolden(cfg socgen.Config, prog riscv.Program, db *fault.DB, opts Options, blob []byte) (*SoCRun, error) {
	return prepareSoC(cfg, prog, db, opts, func(c *Campaign) (uint64, error) {
		return c.adoptGolden(bytes.NewReader(blob))
	})
}

// prepareSoC is both PrepareSoC variants; golden acquires the golden state
// as in prepare.
func prepareSoC(cfg socgen.Config, prog riscv.Program, db *fault.DB, opts Options, golden func(*Campaign) (uint64, error)) (*SoCRun, error) {
	d, err := socgen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	f, err := netlist.Flatten(d)
	if err != nil {
		return nil, err
	}
	wl, err := socgen.RunWorkload(prog, WorkloadCycles)
	if err != nil {
		return nil, err
	}
	plan, err := socgen.BuildStimulus(f, wl)
	if err != nil {
		return nil, err
	}
	if opts.CellWeight == nil {
		opts.CellWeight = socgen.Weights(cfg)
	}
	camp, res, err := prepare(f, plan, db, opts, golden)
	if err != nil {
		return nil, fmt.Errorf("inject: SoC%d: %v", cfg.Index, err)
	}
	return &SoCRun{Config: cfg, Flat: f, Plan: plan, Campaign: camp, Result: res}, nil
}

// RunSoC prepares and executes a full campaign on one Table I benchmark.
func RunSoC(cfg socgen.Config, prog riscv.Program, db *fault.DB, opts Options) (*SoCRun, error) {
	run, err := PrepareSoC(cfg, prog, db, opts)
	if err != nil {
		return nil, err
	}
	if err := run.Campaign.Run(run.Result); err != nil {
		return nil, err
	}
	return run, nil
}
