// Package inject implements the paper's fault-injection campaign: cluster
// the netlist cells (Algorithm 1), draw an equal-proportion sample from
// every cluster, inject one single-particle fault per sampled cell at a
// random time through the VPI layer (SEU state flips for storage cells, SET
// pulses for combinational outputs, per the Fig. 2 models), simulate, and
// classify the run as a soft error when the main outputs diverge from the
// golden run. Cluster and chip soft-error rates follow Eq. 2; module-level
// exposure rates use the soft-error database and the representation weights
// of the scaled platform.
//
// The campaign exploits a structural property of the workload: every fault
// strikes after cycle 3, so the prefix of every faulty run is bit-identical
// to the golden run. During the golden run the campaign snapshots engine
// checkpoints on a fixed grid, every CheckpointEveryCycles-th cycle; each
// injection then warm-starts from the latest checkpoint at or before its
// strike time and simulates only the post-strike tail, with early exit as
// soon as the verdict is decided (first diverging output row, or full
// state re-convergence onto the golden trajectory). The golden run reads
// neither the injection plan nor the campaign's seeds, so one golden
// artifact serves every campaign on the same design, workload, engine and
// detector. The earliest exit needs no simulation at all: an SET on a
// cell that drives no clock or async set/reset pin, whose pulse window
// (widened by the path delay to the next flop or monitor) holds no
// capture edge and no sampling instant, is decided masked before any
// restore — the latching-window prefilter of latch.go. Cold starts and
// the VCD detector still simulate every run: they are the oracle the
// early exits are checked against. Each warm start resets its worker's one
// reusable engine with sim.Engine.Restore. See DESIGN.md.
package inject

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/socgen"
	"repro/internal/vcd"
	"repro/internal/xrand"
)

// DefaultCheckpointEveryCycles is the golden-run checkpoint pitch used when
// Options.CheckpointEveryCycles is zero: dense enough that the average
// re-simulated prefix is under one cycle and convergence is probed every
// other cycle, while a 30-odd-cycle workload still only keeps ~17 snapshots.
const DefaultCheckpointEveryCycles = 2

// Params are the parameters that name a campaign: Algorithm 1's K_N/L_N,
// the heavy-ion environment, the equal-proportion sample and the seeds,
// plus the two switches (cold start, VCD detector) a campaign is audited
// under. They are declared once: Options embeds them beside the
// per-process knobs, and shard.CampaignSpec embeds them beside the
// design and workload, so the JSON tags here are the wire shape every
// campaign fingerprint hashes — field order and tags must not change.
type Params struct {
	Engine sim.EngineKind `json:"engine"`
	// LET of the simulated heavy-ion environment (MeV·cm²/mg).
	LET float64 `json:"let"`
	// Flux in particles/cm²/s.
	Flux float64 `json:"flux"`
	// ExposureS is the real exposure window the simulated run stands for,
	// in seconds. It calibrates upset-per-cell probabilities.
	ExposureS float64 `json:"exposure_s"`
	// KN and LN are Algorithm 1's cluster count and layer depth.
	KN int `json:"kn"`
	LN int `json:"ln"`
	// SampleFrac and MinPerCluster control equal-proportion sampling.
	SampleFrac    float64 `json:"sample_frac"`
	MinPerCluster int     `json:"min_per_cluster"`
	// Seed drives the campaign's sampling and strike-time choices.
	Seed uint64 `json:"seed"`
	// ClusterSeed drives Algorithm 1's initial center selection. Zero
	// derives it from the design name, so the clustering of a given
	// netlist is identical across campaigns — the paper clusters the
	// netlist once and then runs fault injection under varying conditions.
	ClusterSeed uint64 `json:"cluster_seed,omitempty"`
	// ColdStart disables checkpointing and warm starts entirely, restoring
	// the replay-from-t=0 behaviour; campaign results are bit-identical
	// either way (the warm-vs-cold regression tests rely on this switch).
	ColdStart bool `json:"cold_start,omitempty"`
	// CompareVCD selects the paper's soft-error detector — dump the run to
	// VCD, parse it and diff it against the golden trace — for every
	// injection that replays from t=0 (all of them under ColdStart), and
	// makes the golden run dump its trace and every checkpoint carry the
	// writer state TailVCD resumes from. Injections that warm-start from a
	// checkpoint keep the cycle signature, whose golden rows are the golden
	// dump's samples by definition. Both detectors read one sampled value
	// per cycle (see Campaign.sampled), so a verdict that differs between
	// them is a bug, not noise.
	CompareVCD bool `json:"compare_vcd,omitempty"`
}

// Options configures a campaign: the Params that name it, plus what no
// fingerprint carries — the weight and module hooks PrepareSoC derives
// from the benchmark, and the knobs that change how this process runs
// the campaign but never what it computes.
type Options struct {
	Params
	// CellWeight returns the representation weight of a cell (physical
	// elements per simulated cell); nil means weight 1.
	CellWeight func(c *netlist.FlatCell) float64
	// ModuleOf groups cells into report modules; nil uses socgen.ModuleOf.
	ModuleOf func(c *netlist.FlatCell) string
	// Workers is the number of concurrent injection simulations. Fault
	// runs are independent, and all random choices are drawn before the
	// fan-out, so any worker count produces identical results. 0 uses
	// GOMAXPROCS.
	Workers int
	// CheckpointEveryCycles is the clock-cycle pitch of the golden-run
	// checkpoint schedule that injection runs warm-start from. 0 uses
	// DefaultCheckpointEveryCycles; the verdicts are bit-identical for any
	// pitch, only the amount of re-simulated prefix changes. A golden
	// artifact is adopted only by a campaign running the pitch it was built
	// with: see checkpointCycles.
	CheckpointEveryCycles int
	// Metrics, when non-nil, mirrors the campaign's work counters into an
	// obs registry as RunJobs ranges finish. Pure observation: excluded
	// from fingerprints and serialization, never consulted by simulation.
	Metrics *Metrics `json:"-"`
}

// DefaultOptions returns the options used throughout the paper
// reproduction: LET 37, flux 5e8, EventSim, 25% sampling, and SoC1's
// Table I cluster count.
func DefaultOptions() Options {
	return Options{Params: Params{
		Engine:        sim.KindEvent,
		LET:           37.0,
		Flux:          5e8,
		ExposureS:     4e-10,
		KN:            socgen.TableIConfigs()[0].KN,
		LN:            4,
		SampleFrac:    0.25,
		MinPerCluster: 3,
		Seed:          1,
	}}
}

// Injection records one fault injection and its outcome. The JSON tags
// are the wire form shard partials travel in (runstore journal lines and
// campaignd result posts); the audit-grade result schema in serialize.go
// additionally renders Kind symbolically.
type Injection struct {
	CellID    int        `json:"cell_id"`
	Path      string     `json:"path"`
	Kind      fault.Kind `json:"kind"`
	TimePS    uint64     `json:"time_ps"`
	PulsePS   uint64     `json:"pulse_ps,omitempty"` // SET only
	Cluster   int        `json:"cluster"`
	SoftError bool       `json:"soft_error"`
}

// Job is one planned injection: the sampled cell, its cluster, and the
// pre-drawn strike time. The whole campaign plan is drawn before any
// worker or shard fan-out, so distributing a campaign is a pure split of
// the job index range — every shard rebuilds the identical plan from the
// campaign seed and executes a disjoint [start,end) slice of it.
type Job struct {
	CellID  int    `json:"cell_id"`
	Cluster int    `json:"cluster"`
	TimePS  uint64 `json:"time_ps"`
}

// ClusterStats aggregates one cluster's campaign outcome.
type ClusterStats struct {
	Index      int
	Cells      int
	Sampled    int
	SoftErrors int
	// SER is the sampled soft-error ratio of the cluster (Eq. 2 operand).
	SER float64
}

// ModuleStats aggregates a functional module (Memory / Bus / CPU Logic).
type ModuleStats struct {
	Name       string
	Cells      int
	Sampled    int
	SoftErrors int
	// Manifest is the sampled probability that an upset in the module
	// produces an output error.
	Manifest float64
	// Lambda is the expected number of physical upsets in the module over
	// the exposure window (flux · Σ σ·w · T).
	Lambda float64
	// SER is the module soft-error probability over the window:
	// 1 - exp(-Manifest·Lambda), in percent.
	SERPercent float64
}

// Result is the full campaign outcome.
type Result struct {
	Design     string
	Engine     string
	Options    Options
	Clusters   []ClusterStats
	Modules    map[string]*ModuleStats
	Injections []Injection
	// ChipSER is Eq. 2: Σ CellN_i·SER_i / Σ CellN_i.
	ChipSER float64
	// SETXsect and SEUXsect are the chip's total weighted cross-sections
	// (cm²) split by fault kind — Table I's last two columns.
	SETXsect, SEUXsect float64
	// ClusterOf maps every cell ID to its cluster.
	ClusterOf []int
	// GoldenWall is the golden run's wall-clock (Table III) and GoldenEvals
	// its simulator cell evaluations.
	GoldenWall  time.Duration
	GoldenEvals uint64
	// Work is the injection phase's simulator work (InjectWall,
	// InjectEvals, WarmStarts, ...).
	Work
}

// Campaign holds the prepared state for running injections on one design.
type Campaign struct {
	flat *netlist.Flat
	plan *socgen.StimulusPlan
	opts Options
	db   *fault.DB

	clusters *cluster.Result
	// latch is the latching-window prefilter's static table; nil, deciding
	// nothing, under ColdStart (no run starts from a checkpoint) and when
	// the clock is not a plain buffer tree.
	latch  *latchTable
	golden *signature
	// goldenVCDDump holds the raw golden dump of a warm CompareVCD
	// campaign, whose per-checkpoint prefixes faulty tail dumps are
	// stitched onto; goldenVCD is the parsed golden trace the VCD detector
	// diffs against, materialized once by goldenTrace under traceMu.
	goldenVCDDump []byte
	goldenVCD     *vcd.Trace
	traceMu       sync.Mutex
	// jobs is the injection plan, drawn once in prepare.
	jobs []Job

	// ckpts is the golden-run checkpoint schedule, ascending in time;
	// read-only after New, shared by all workers.
	ckpts []goldenCheckpoint
}

// goldenCheckpoint is one snapshot of the golden run: the engine state at
// the start of clock cycle `cycle` (just after its rising edge). Under
// CompareVCD it additionally carries the golden VCD writer's dump state at
// the same instant, so a restored run can resume dumping mid-trace.
type goldenCheckpoint struct {
	cycle int
	time  uint64
	ck    *sim.Checkpoint

	vcdState  *vcd.WriterState
	vcdPrefix int // golden dump bytes emitted up to this checkpoint
}

// New prepares a campaign: validates options, clusters the cells, and
// captures the golden signature plus the checkpoint schedule injections
// warm-start from.
func New(f *netlist.Flat, plan *socgen.StimulusPlan, db *fault.DB, opts Options) (*Campaign, *Result, error) {
	return prepare(f, plan, db, opts, (*Campaign).runGolden)
}

// prepare is New and NewFromGolden: option validation, clustering,
// drawing the injection plan, then golden, which acquires the golden state
// (simulated, or adopted from an artifact) and returns its eval count. The
// golden run reads no campaign randomness and no part of the plan, so an
// artifact built under any seed, environment or sample adopts into this
// campaign unchanged. GoldenWall is the wall-clock this process spent in
// golden; an adopted artifact carries the builder's GoldenEvals.
func prepare(f *netlist.Flat, plan *socgen.StimulusPlan, db *fault.DB, opts Options, golden func(*Campaign) (uint64, error)) (*Campaign, *Result, error) {
	if opts.KN < 1 || opts.LN < 1 {
		return nil, nil, fmt.Errorf("inject: KN/LN must be positive")
	}
	if opts.SampleFrac <= 0 || opts.SampleFrac > 1 {
		return nil, nil, fmt.Errorf("inject: SampleFrac %g out of (0,1]", opts.SampleFrac)
	}
	if opts.Flux < 0 || opts.ExposureS < 0 {
		return nil, nil, fmt.Errorf("inject: negative flux or exposure")
	}
	if opts.CheckpointEveryCycles < 0 {
		return nil, nil, fmt.Errorf("inject: CheckpointEveryCycles %d must be >= 0", opts.CheckpointEveryCycles)
	}
	if opts.ModuleOf == nil {
		opts.ModuleOf = socgen.ModuleOf
	}
	if opts.CellWeight == nil {
		opts.CellWeight = func(*netlist.FlatCell) float64 { return 1 }
	}
	clusterSeed := opts.ClusterSeed
	if clusterSeed == 0 {
		// Stable per-design default: clustering reflects the netlist's
		// structure, not the campaign's stochastic choices.
		clusterSeed = 0xcbf29ce484222325
		for _, b := range []byte(f.Name) {
			clusterSeed = (clusterSeed ^ uint64(b)) * 0x100000001b3
		}
	}
	cl, err := cluster.ClusterCells(f, opts.KN, opts.LN, xrand.New(clusterSeed))
	if err != nil {
		return nil, nil, err
	}
	c := &Campaign{flat: f, plan: plan, opts: opts, db: db, clusters: cl}
	c.drawJobs(xrand.New(opts.Seed))

	res := &Result{
		Design:    f.Name,
		Engine:    string(opts.Engine),
		Options:   opts,
		Modules:   map[string]*ModuleStats{},
		ClusterOf: cl.Assign,
	}
	if c.warmStartEnabled() {
		c.latch = newLatchTable(f, plan, opts.Engine, c.sampleTime(1))
	}
	start := time.Now()
	evals, err := golden(c)
	if err != nil {
		return nil, nil, err
	}
	res.GoldenWall = time.Since(start)
	res.GoldenEvals = evals
	return c, res, nil
}

// signature is the cycle-sampled value matrix of the monitored outputs:
// one row per clock cycle, sampled just before each rising edge. Rows are
// backed by a single flat slab so a whole run's signature is one
// allocation and comparisons are a single linear scan.
type signature struct {
	cols int
	slab []logic.V
}

// newSignature returns a signature with capacity for rows full rows.
func newSignature(cols, rows int) *signature {
	if rows < 0 {
		rows = 0
	}
	return &signature{cols: cols, slab: make([]logic.V, 0, cols*rows)}
}

// addRow extends the signature by one row and returns it for filling.
func (s *signature) addRow() []logic.V {
	n := len(s.slab)
	if cap(s.slab) >= n+s.cols {
		s.slab = s.slab[:n+s.cols]
	} else {
		grown := make([]logic.V, n+s.cols, 2*(n+s.cols))
		copy(grown, s.slab)
		s.slab = grown
	}
	return s.slab[n : n+s.cols]
}

// rows reports the number of complete rows captured.
func (s *signature) rows() int {
	if s.cols == 0 {
		return 0
	}
	return len(s.slab) / s.cols
}

// row returns row i without copying.
func (s *signature) row(i int) []logic.V {
	return s.slab[i*s.cols : (i+1)*s.cols]
}

// cycles is the number of clock cycles in the workload plan.
func (c *Campaign) cycles() int { return int(c.plan.DurationPS / c.plan.PeriodPS) }

// sampleTime is the pre-edge instant cycle k's outputs are captured at.
func (c *Campaign) sampleTime(k int) uint64 { return uint64(k)*c.plan.PeriodPS - 20 }

// warmStartEnabled reports whether injections run from golden checkpoints.
// Only ColdStart forces the legacy replay-from-zero behaviour; a CompareVCD
// campaign warm-starts too (see Options.CompareVCD).
func (c *Campaign) warmStartEnabled() bool {
	return !c.opts.ColdStart
}

// checkpointCycles is the golden-run checkpoint schedule: every
// pitch-th cycle whose snapshot instant leaves at least one full cycle
// of plan to resume into, and none under ColdStart. It depends on the
// stimulus clock and the pitch alone, never on the injection plan, which
// is what lets campaigns of different seeds share one golden artifact.
func (c *Campaign) checkpointCycles() []int {
	if !c.warmStartEnabled() {
		return nil
	}
	pitch := c.opts.CheckpointEveryCycles
	if pitch == 0 {
		pitch = DefaultCheckpointEveryCycles
	}
	period := c.plan.PeriodPS
	var cycles []int
	for k := pitch; uint64(k+1)*period <= c.plan.DurationPS; k += pitch {
		cycles = append(cycles, k)
	}
	return cycles
}

// runGolden simulates the fault-free workload, capturing the golden
// signature and — when warm starts are enabled — the checkpoint schedule.
// Checkpoints are taken 1ps after the rising edge of the scheduled cycles,
// an instant that never coincides with stimulus, strikes or sampling.
// Under CompareVCD the same run also dumps the golden VCD trace, and each
// checkpoint captures the writer's dump state alongside the engine state.
func (c *Campaign) runGolden() (evals uint64, err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("inject: golden run: %v", err)
		}
	}()
	eng, err := c.coldEngine()
	if err != nil {
		return 0, err
	}
	var vw *vcd.Writer
	var vcdBuf *bytes.Buffer
	if c.opts.CompareVCD && c.warmStartEnabled() {
		vcdBuf = &bytes.Buffer{}
		vw = vcd.NewWriter(vcdBuf)
		if err := sim.AttachVCD(eng, vw, c.plan.Monitors); err != nil {
			return 0, err
		}
	}
	var ckpts []goldenCheckpoint
	for _, k := range c.checkpointCycles() {
		tm := uint64(k)*c.plan.PeriodPS + 1
		eng.At(tm, func() {
			gc := goldenCheckpoint{cycle: k, time: tm, ck: eng.Snapshot()}
			if vw != nil {
				// The dump state and the byte offset let a faulty run
				// resume the trace mid-dump (see TailVCD).
				_ = vw.Flush()
				gc.vcdState = vw.State()
				gc.vcdPrefix = vcdBuf.Len()
			}
			ckpts = append(ckpts, gc)
		})
	}
	// Pre-edge output sampling, one row per cycle from cycle 2 on.
	sig := newSignature(len(c.plan.Monitors), c.cycles()-1)
	for k := 2; k <= c.cycles(); k++ {
		eng.At(c.sampleTime(k), func() {
			row := sig.addRow()
			for i, nid := range c.plan.Monitors {
				row[i] = eng.Value(nid)
			}
		})
	}
	if err := eng.Run(c.plan.DurationPS); err != nil {
		return 0, err
	}
	if vw != nil {
		if err := vw.Close(c.plan.DurationPS); err != nil {
			return 0, err
		}
		c.goldenVCDDump = vcdBuf.Bytes()
	}
	c.ckpts = ckpts
	c.golden = sig
	return eng.CellEvals(), nil
}

// injectionWindow returns a random fault time away from reset and the
// final cycles, avoiding ±80ps around clock edges so both engines see the
// same capture behaviour. Degenerately short stimulus plans fall back to
// the widest window that still clears reset and the final edge.
func (c *Campaign) injectionWindow(rng *xrand.RNG) uint64 {
	period := c.plan.PeriodPS
	lo := 3 * period
	var hi uint64
	if c.plan.DurationPS > 2*period {
		hi = c.plan.DurationPS - 2*period
	}
	if hi <= lo {
		// Degenerate short plan: relax the reset-window exclusion and draw
		// from (period, duration - period/2) — strikes may land during
		// reset here, which a workload this short cannot avoid.
		lo = period
		hi = 0
		if c.plan.DurationPS > period/2 {
			hi = c.plan.DurationPS - period/2
		}
		if hi <= lo {
			return c.plan.DurationPS / 2
		}
	}
	t := lo + uint64(rng.Intn(int(hi-lo)))
	if m := t % period; m < 80 {
		t += 80 - m
	} else if m > period-80 {
		t -= m - (period - 80)
	}
	return t
}

// drawJobs draws the campaign's full injection plan from rng — the
// equal-proportion cluster sample and one strike time per sampled cell.
// Every process that builds a campaign from the same design, options and
// seed obtains the identical plan; this is the property shard distribution
// rests on.
func (c *Campaign) drawJobs(rng *xrand.RNG) {
	samples := cluster.SampleProportional(c.clusters, c.opts.SampleFrac, c.opts.MinPerCluster, rng.Split())
	for ci, cells := range samples {
		for _, cellID := range cells {
			c.jobs = append(c.jobs, Job{CellID: cellID, Cluster: ci, TimePS: c.injectionWindow(rng)})
		}
	}
}

// DrawJobs returns the campaign's injection plan, drawn when the campaign
// was prepared. The returned slice is shared and must not be mutated.
func (c *Campaign) DrawJobs() []Job { return c.jobs }

// Run executes the full campaign and fills the result. Injection runs are
// independent simulations; they fan out over Options.Workers goroutines,
// each reusing one engine across its injections (restore-from-checkpoint
// instead of construct-and-replay). Every random decision (sample
// membership, strike times) is drawn before the fan-out, so the result is
// identical for any worker count, checkpoint pitch, and warm/cold choice.
func (c *Campaign) Run(res *Result) error {
	jobs := c.DrawJobs()
	if err := c.RunJobs(res, 0, len(jobs)); err != nil {
		return err
	}
	c.Aggregate(res)
	return nil
}

// jobBatch is one worker work unit: a run of jobs that restore from the
// same golden checkpoint (ckIdx < 0: strikes before the first checkpoint,
// or a campaign without checkpoints, replayed cold), in ascending strike
// order. Each job's checkpoint is resolved once, at batch-build time; the
// workers never search the schedule again.
type jobBatch struct {
	ckIdx int
	idxs  []int // indices into the RunJobs slice, ascending by strike time
	// laneCks marks a lane group (lanes.go): job idxs[i] restores from
	// checkpoint laneCks[i], and the group's one pass starts at ckIdx,
	// its first job's.
	laneCks []int
}

// buildBatches strike-sorts the slice's jobs and groups them by restore
// checkpoint, then splits oversized groups so the batch count keeps every
// worker busy. On a warm LevelSim campaign the checkpoint-start SEUs go
// to lane groups instead, ahead of every other batch (laneGroups). Batch
// order and shape are pure scheduling: verdicts are per-injection and
// every random choice is pre-drawn, so any grouping produces identical
// results (pinned by TestBatchOrderIndependence).
func (c *Campaign) buildBatches(jobs []Job, workers int) []jobBatch {
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return jobs[order[a]].TimePS < jobs[order[b]].TimePS })
	// Two-pointer resolution: strikes ascend, so the schedule is walked
	// once for the whole slice instead of binary-searched per injection.
	var batches []jobBatch
	var seus jobBatch
	ck := 0
	for _, idx := range order {
		for ck < len(c.ckpts) && c.ckpts[ck].time <= jobs[idx].TimePS {
			ck++
		}
		recIdx := ck - 1
		if recIdx >= 0 && c.opts.Engine == sim.KindLevel && c.flat.Cells[jobs[idx].CellID].Def.IsSequential() {
			seus.idxs = append(seus.idxs, idx)
			seus.laneCks = append(seus.laneCks, recIdx)
			continue
		}
		if len(batches) == 0 || batches[len(batches)-1].ckIdx != recIdx {
			batches = append(batches, jobBatch{ckIdx: recIdx})
		}
		last := &batches[len(batches)-1]
		last.idxs = append(last.idxs, idx)
	}
	// Re-chunk so scheduling granularity stays finer than the worker
	// count even when strikes concentrate on few checkpoints; a chunk
	// never spans two restore points. Without checkpoints there are no
	// batches to keep whole, and one-job units balance best.
	chunk := len(jobs) / (4 * workers)
	if chunk < 1 || len(c.ckpts) == 0 {
		chunk = 1
	}
	out := laneGroups(seus, workers)
	for _, b := range batches {
		for len(b.idxs) > chunk {
			out = append(out, jobBatch{ckIdx: b.ckIdx, idxs: b.idxs[:chunk]})
			b.idxs = b.idxs[chunk:]
		}
		out = append(out, b)
	}
	return out
}

// RunJobs executes the [start,end) slice of the drawn injection plan and
// accumulates raw outcomes into res: injections are appended in plan
// order and res.Work is incremented by this slice's contribution only. It
// is the shard-scoped campaign entry point — a shard worker calls it for
// each leased index range, reusing this campaign's golden run and
// checkpoints across shards — and it does not aggregate: call Aggregate
// once after every planned injection has been accumulated.
func (c *Campaign) RunJobs(res *Result, start, end int) error {
	all := c.DrawJobs()
	if start < 0 || end > len(all) || start > end {
		return fmt.Errorf("inject: job range [%d,%d) outside plan of %d injections", start, end, len(all))
	}
	jobs := all[start:end]
	workers := c.opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers < 1 {
		workers = 1
	}
	batches := c.buildBatches(jobs, workers)
	began := time.Now()
	injections := make([]Injection, len(jobs))
	errs := make([]error, len(jobs))
	ws := make([]worker, workers)
	var wg sync.WaitGroup
	next := make(chan jobBatch)
	for i := range ws {
		w := &ws[i]
		w.c = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range next {
				if b.laneCks != nil {
					w.injectLanes(jobs, b, injections, errs)
					continue
				}
				for _, idx := range b.idxs {
					injections[idx], errs[idx] = w.inject(jobs[idx], b.ckIdx)
				}
			}
		}()
	}
	for _, b := range batches {
		next <- b
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	sum := Work{InjectWall: time.Since(began)}
	for i := range ws {
		sum.Add(ws[i].Work)
	}
	res.Injections = append(res.Injections, injections...)
	res.Work.Add(sum)
	c.opts.Metrics.record(began, start, end, sum)
	return nil
}

// Aggregate computes cluster, module and chip statistics from the raw
// injection outcomes accumulated in res. It assumes res.Injections holds
// every planned injection exactly once (any order) and must be called
// exactly once per Result — module cell counts and exposure rates are
// accumulated, not recomputed. Run calls it automatically; sharded
// campaigns call it after merging all partials.
func (c *Campaign) Aggregate(res *Result) {
	nClusters := len(c.clusters.Members)
	cs := make([]ClusterStats, nClusters)
	for ci := range cs {
		cs[ci] = ClusterStats{Index: ci, Cells: len(c.clusters.Members[ci])}
	}
	moduleOf := c.opts.ModuleOf
	weight := c.opts.CellWeight
	for _, inj := range res.Injections {
		cs[inj.Cluster].Sampled++
		if inj.SoftError {
			cs[inj.Cluster].SoftErrors++
		}
		m := c.module(res, moduleOf(c.flat.Cells[inj.CellID]))
		m.Sampled++
		if inj.SoftError {
			m.SoftErrors++
		}
	}
	var wsum, cells float64
	for ci := range cs {
		if cs[ci].Sampled > 0 {
			cs[ci].SER = float64(cs[ci].SoftErrors) / float64(cs[ci].Sampled)
		}
		wsum += float64(cs[ci].Cells) * cs[ci].SER
		cells += float64(cs[ci].Cells)
	}
	res.Clusters = cs
	if cells > 0 {
		res.ChipSER = wsum / cells
	}

	// Per-module exposure: λ = flux · Σ σ(LET)·w · T, manifest from the
	// module's sampled injections, SER% = 100·(1 − e^{−manifest·λ}).
	for _, fc := range c.flat.Cells {
		entry, err := c.db.Entry(fc.Def.Name)
		if err != nil {
			continue
		}
		m := c.module(res, moduleOf(fc))
		m.Cells++
		sigma := entry.XsectAt(c.opts.LET) * weight(fc)
		m.Lambda += c.opts.Flux * sigma * c.opts.ExposureS
		if fc.Def.IsSequential() {
			res.SEUXsect += entry.XsectAt(c.opts.LET) * weight(fc)
		} else {
			res.SETXsect += entry.XsectAt(c.opts.LET) * weight(fc)
		}
	}
	for _, m := range res.Modules {
		if m.Sampled > 0 {
			m.Manifest = float64(m.SoftErrors) / float64(m.Sampled)
		}
		m.SERPercent = 100 * (1 - math.Exp(-m.Manifest*m.Lambda))
	}
}

func (c *Campaign) module(res *Result, name string) *ModuleStats {
	m, ok := res.Modules[name]
	if !ok {
		m = &ModuleStats{Name: name}
		res.Modules[name] = m
	}
	return m
}
