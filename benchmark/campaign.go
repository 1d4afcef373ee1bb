package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/inject"
	"repro/internal/netlist"
	"repro/internal/riscv"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/socgen"
	"repro/internal/ssresf"
	"repro/internal/xrand"
)

// design is one campaign of a repetition: a Table I benchmark and the
// RISC-V kernel it runs.
type design struct {
	soc    int
	kernel string
}

// campaignWorkload is the in-process fault-injection path: PrepareSoC
// then Campaign.Run on each design, as cmd/socfault does.
type campaignWorkload struct {
	designs []design
	engine  sim.EngineKind
	// coldVCD runs the paper's original method — replay every injection
	// from t=0 and diff full VCD dumps — instead of warm-started
	// signature comparison.
	coldVCD bool

	env *runEnv
	ec  ssresf.ExperimentConfig
	// oracleDone marks that the traced pass ran its one cold-oracle check.
	oracleDone bool
}

func (w *campaignWorkload) prepare(_ context.Context, env *runEnv) error {
	runtime.GOMAXPROCS(2) // sizing rule: in-process workloads run on two threads, Options.Workers stays 0
	w.env = env
	w.ec = ssresf.DefaultExperimentConfig(false)
	return nil
}

// options are the campaign options of design d under input k: the
// experiment defaults (sample 0.2, min-per-cluster 3, the paper's KN)
// with the campaign seed offset by the input seed.
func (w *campaignWorkload) options(d design, k int) inject.Options {
	o := w.ec.OptionsFor(d.soc)
	o.Seed += w.env.inputSeed(k)
	o.Engine = w.engine
	o.ColdStart = w.coldVCD
	o.CompareVCD = w.coldVCD
	return o
}

// prepared is one design readied for injection.
type prepared struct {
	d   design
	run *inject.SoCRun
}

// buildDesign generates a benchmark's netlist, flattens it and builds
// its workload stimulus, a span around each layer.
func buildDesign(sc scope, cfg socgen.Config, prog riscv.Program) (*netlist.Flat, *socgen.StimulusPlan, error) {
	sp := sc.child("socgen.generate")
	d, err := socgen.Generate(cfg)
	sp.end()
	if err != nil {
		return nil, nil, err
	}
	sp = sc.child("netlist.flatten")
	f, err := netlist.Flatten(d)
	sp.end()
	if err != nil {
		return nil, nil, err
	}
	sp = sc.child("socgen.stimulus")
	defer sp.end()
	wl, err := socgen.RunWorkload(prog, inject.WorkloadCycles)
	if err != nil {
		return nil, nil, err
	}
	plan, err := socgen.BuildStimulus(f, wl)
	return f, plan, err
}

// prepareTraced is inject.PrepareSoC called piecewise, a span around
// each layer; the pieces and their order mirror PrepareSoC exactly.
func prepareTraced(sc scope, cfg socgen.Config, prog riscv.Program, ec ssresf.ExperimentConfig, opts inject.Options) (*inject.SoCRun, error) {
	f, plan, err := buildDesign(sc, cfg, prog)
	if err != nil {
		return nil, err
	}
	opts.CellWeight = socgen.Weights(cfg)
	// inject.New clusters, draws the plan and simulates the golden run
	// with its checkpoints.
	sp := sc.child("inject.golden")
	camp, res, err := inject.New(f, plan, ec.DB, opts)
	sp.end()
	if err != nil {
		return nil, err
	}
	return &inject.SoCRun{Config: cfg, Flat: f, Plan: plan, Campaign: camp, Result: res}, nil
}

func (w *campaignWorkload) rep(_ context.Context, k int, sc scope) (sample, error) {
	traced := sc.t != nil
	s := sample{ops: 1, layer: map[string]float64{}}

	// Set-up: everything before the first injection can run.
	setup := sc.child("setup")
	runs := make([]prepared, 0, len(w.designs))
	for _, d := range w.designs {
		cfg, err := socgen.ConfigByIndex(d.soc)
		if err != nil {
			return s, err
		}
		prog, err := shard.WorkloadProgram(d.kernel)
		if err != nil {
			return s, err
		}
		var run *inject.SoCRun
		if traced {
			run, err = prepareTraced(setup, cfg, prog, w.ec, w.options(d, k))
		} else {
			run, err = inject.PrepareSoC(cfg, prog, w.ec.DB, w.options(d, k))
		}
		if err != nil {
			return s, fmt.Errorf("SoC%d/%s: %v", d.soc, d.kernel, err)
		}
		runs = append(runs, prepared{d, run})
	}
	s.setup = setup.end()

	// The timed operation: every design's injections.
	var ms0 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&ms0)
	}
	cpu0 := selfCPU()
	op := sc.child("campaign")
	for _, p := range runs {
		c, res := p.run.Campaign, p.run.Result
		var err error
		if traced {
			sp := op.child("inject.draw_jobs")
			jobs := c.DrawJobs()
			sp.end()
			sp = op.child("inject.run_jobs")
			err = c.RunJobs(res, 0, len(jobs))
			sp.end()
			if err == nil {
				sp = op.child("inject.aggregate")
				c.Aggregate(res)
				sp.end()
			}
		} else {
			err = c.Run(res)
		}
		if err != nil {
			return s, fmt.Errorf("SoC%d/%s: %v", p.d.soc, p.d.kernel, err)
		}
	}
	s.wall = op.end()
	s.cpu = selfCPU() - cpu0
	if traced {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		s.layer["harness.alloc_mb_per_rep"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	}
	for _, p := range runs {
		s.units += float64(len(p.run.Result.Injections))
	}
	s.unitWall = s.wall

	// Output checks.
	chk := sc.child("verify")
	defer chk.end()
	sp := chk.child("harness.digest")
	var evals float64
	for _, p := range runs {
		evals += float64(p.run.Result.InjectEvals)
	}
	err := w.env.exact.pin(fmt.Sprintf("input%d.verdict_digest", k), verdictDigest(runs))
	if err == nil {
		err = w.env.exact.pinFloat(fmt.Sprintf("input%d.evals_per_inj", k), evals/s.units)
	}
	sp.end()
	if err != nil {
		return s, err
	}
	sp = chk.child("harness.cross_check")
	for _, p := range runs {
		if err := w.crossCheck(p, k); err != nil {
			sp.end()
			return s, fmt.Errorf("SoC%d/%s: %v", p.d.soc, p.d.kernel, err)
		}
	}
	sp.end()
	if traced {
		w.readCounters(&s, runs)
		if !w.oracleDone {
			w.oracleDone = true
			if err := w.coldOracle(chk, &s, runs[0], k); err != nil {
				return s, fmt.Errorf("SoC%d/%s: %v", runs[0].d.soc, runs[0].d.kernel, err)
			}
		}
	}
	return s, nil
}

// verdictDigest is sha256 over every design's verdict list plus its
// ChipSER — the simulated statistics a host-speed change must leave
// bit-identical.
func verdictDigest(runs []prepared) string {
	h := sha256.New()
	var b [8]byte
	for _, p := range runs {
		for _, inj := range p.run.Result.Injections {
			binary.LittleEndian.PutUint64(b[:], uint64(inj.CellID))
			h.Write(b[:])
			binary.LittleEndian.PutUint64(b[:], inj.TimePS)
			h.Write(b[:])
			if inj.SoftError {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
		}
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(p.run.Result.ChipSER))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// spotChecks is how many planned injections per design each repetition
// of a warm workload replays cold.
const spotChecks = 3

// vcdTolerance is how many verdicts per campaign the cold-VCD detector may
// give differently from the signature detector. The two are designed to
// agree, and do on all but roughly one injection in 10000, in either
// direction: at the seed commit SoC3/dot, campaign seed 11000042,
// injection 121 (a 92 ps SET on u_mem.u_g_19 at 23749 ps) is a soft error
// to the warm and cold signature detectors and the warm VCD detector, and
// none to the cold VCD replay; other seeds show the VCD replay alone
// reporting one. A broken change flips verdicts by the dozen, so two per
// campaign are let through (and logged) rather than failing the run.
const vcdTolerance = 2

// crossCheck verifies a design's verdicts by an independent method on
// every repetition. A warm campaign has a window of spotChecks planned
// injections replayed from t=0 (a ColdStart campaign's RunJobs over the
// same plan) and must agree exactly — the repo's warm ≡ cold invariant. A
// cold-VCD campaign — itself the oracle method — is checked whole against
// a warm signature campaign of the same design and seed, which is cheap
// and pins both warm ≡ cold and VCD ≡ signature, to vcdTolerance.
func (w *campaignWorkload) crossCheck(p prepared, k int) error {
	injs := p.run.Result.Injections
	if len(injs) < spotChecks {
		return fmt.Errorf("campaign made %d injections", len(injs))
	}
	prog, err := shard.WorkloadProgram(p.d.kernel)
	if err != nil {
		return err
	}
	opts := w.options(p.d, k)
	if w.coldVCD {
		opts.ColdStart, opts.CompareVCD = false, false
		warm, err := inject.RunSoC(p.run.Config, prog, w.ec.DB, opts)
		if err != nil {
			return err
		}
		return w.sameVerdicts(injs, warm.Result.Injections, "cold-VCD", "warm-signature", vcdTolerance)
	}
	opts.ColdStart = true
	cold, err := inject.PrepareSoC(p.run.Config, prog, w.ec.DB, opts)
	if err != nil {
		return err
	}
	start := xrand.New(w.env.inputSeed(k) ^ uint64(p.d.soc)).Intn(len(injs) - spotChecks + 1)
	if err := cold.Campaign.RunJobs(cold.Result, start, start+spotChecks); err != nil {
		return err
	}
	return w.sameVerdicts(injs[start:start+spotChecks], cold.Result.Injections, "warm", "cold replay", 0)
}

// sameVerdicts requires two verdict lists over the same plan to agree,
// but for at most tolerate soft-error verdicts (which it logs).
func (w *campaignWorkload) sameVerdicts(a, b []inject.Injection, an, bn string, tolerate int) error {
	differ, first, err := diffVerdicts(a, b)
	if err != nil {
		return fmt.Errorf("%s vs %s: %v", an, bn, err)
	}
	if differ > tolerate {
		return fmt.Errorf("%s and %s disagree on %d of %d verdicts, first %s", an, bn, differ, len(a), first)
	}
	if differ > 0 {
		logf("note: %s and %s disagree on %s (within the tolerance of %d)", an, bn, first, tolerate)
	}
	return nil
}

// diffVerdicts counts the injections two runs of one plan judge
// differently. Different plans (length, cell or strike time) are an error.
func diffVerdicts(a, b []inject.Injection) (differ int, first string, err error) {
	if len(a) != len(b) {
		return 0, "", fmt.Errorf("%d injections against %d", len(a), len(b))
	}
	for i := range a {
		if a[i].CellID != b[i].CellID || a[i].TimePS != b[i].TimePS {
			return 0, "", fmt.Errorf("injection %d is %s t=%dps in one and %s t=%dps in the other", i, a[i].Path, a[i].TimePS, b[i].Path, b[i].TimePS)
		}
		if a[i].SoftError != b[i].SoftError {
			if differ == 0 {
				first = fmt.Sprintf("injection %d (%s t=%dps): %v vs %v", i, a[i].Path, a[i].TimePS, a[i].SoftError, b[i].SoftError)
			}
			differ++
		}
	}
	return differ, first, nil
}

// readCounters copies the campaign's own work counters into the sample.
func (w *campaignWorkload) readCounters(s *sample, runs []prepared) {
	var inj, evals, warm, pruned, delta, cells float64
	var restore, run time.Duration
	for _, p := range runs {
		r := p.run.Result
		inj += float64(len(r.Injections))
		evals += float64(r.InjectEvals)
		warm += float64(r.WarmStarts)
		pruned += float64(r.PrunedRuns)
		delta += float64(r.DeltaRestores)
		restore += r.RestoreWall
		run += r.InjectWall
		cells += float64(len(p.run.Flat.Cells))
	}
	s.layer["netlist.cells"] = cells
	s.layer["inject.injections"] = inj
	s.layer["inject.evals_per_inj"] = evals / inj
	s.layer["inject.warm_starts"] = warm
	s.layer["inject.pruned_runs"] = pruned
	s.layer["inject.pruned_share"] = pruned / inj
	s.layer["inject.delta_restores"] = delta
	if warm > 0 {
		s.layer["inject.delta_share"] = delta / warm
	}
	s.layer["inject.restore_ms"] = millis(restore)
	if run > 0 {
		// RestoreWall sums over the injection workers; the share is of the
		// worker time the run had (wall × workers).
		s.layer["inject.restore_share"] = restore.Seconds() / (run.Seconds() * float64(runtime.GOMAXPROCS(0)))
	}
}

// oracleInjections bounds the cold-oracle replay: enough injections to
// cover every cluster's first draws, few enough to stay near a second.
const oracleInjections = 60

// coldOracle replays the first injections of the workload's smallest
// design with the opposite start mode (cold for a warm workload, warm
// for the cold one) and requires identical verdicts; the eval counts of
// the two give inject.evals_reduction_x. It also times the clustering
// layer alone, which inject.New otherwise hides inside the golden span.
func (w *campaignWorkload) coldOracle(sc scope, s *sample, p prepared, k int) error {
	sp := sc.child("cluster.cluster")
	o := w.options(p.d, k)
	_, err := cluster.ClusterCells(p.run.Flat, o.KN, o.LN, xrand.New(1))
	sp.end()
	if err != nil {
		return err
	}

	sp = sc.child("harness.oracle")
	defer sp.end()
	o.ColdStart = !o.ColdStart
	prog, err := shard.WorkloadProgram(p.d.kernel)
	if err != nil {
		return err
	}
	other, err := inject.PrepareSoC(p.run.Config, prog, w.ec.DB, o)
	if err != nil {
		return err
	}
	n := len(p.run.Result.Injections)
	if n > oracleInjections {
		n = oracleInjections
	}
	if err := other.Campaign.RunJobs(other.Result, 0, n); err != nil {
		return err
	}
	tolerate := 0
	if w.coldVCD {
		tolerate = vcdTolerance
	}
	if err := w.sameVerdicts(p.run.Result.Injections[:n], other.Result.Injections, "workload", "oracle", tolerate); err != nil {
		return err
	}
	// The workload's own evals over the same n injections, for the ratio.
	same, err := inject.PrepareSoC(p.run.Config, prog, w.ec.DB, w.options(p.d, k))
	if err != nil {
		return err
	}
	if err := same.Campaign.RunJobs(same.Result, 0, n); err != nil {
		return err
	}
	cold, warm := other.Result.InjectEvals, same.Result.InjectEvals
	if w.coldVCD {
		cold, warm = warm, cold
	}
	if warm > 0 {
		s.layer["inject.evals_reduction_x"] = float64(cold) / float64(warm)
	}
	return nil
}
