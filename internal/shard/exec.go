package shard

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/inject"
	"repro/internal/obs"
	"repro/internal/riscv"
	"repro/internal/socgen"
)

// Built is a campaign readied on one process: the generated design, the
// golden run with its checkpoint schedule, and the fully drawn injection
// plan. Building is the expensive per-process step; every shard of the
// campaign executed on this process reuses it.
type Built struct {
	Spec        CampaignSpec
	Fingerprint string
	Run         *inject.SoCRun
	Jobs        []inject.Job
}

// BuildLocal validates the spec and constructs the campaign it describes,
// with process-local tuning (nil for none) applied on top of the spec's
// options — worker count, checkpoint pitch: knobs that change how fast
// this process executes its shards but never what they compute, and
// therefore deliberately absent from the spec and the fingerprint.
func BuildLocal(cs CampaignSpec, tune func(*inject.Options)) (*Built, error) {
	return build(cs, tune, inject.PrepareSoC)
}

// build is the set-up BuildLocal and BuildFromGolden share: validate the
// spec, resolve its design and workload, apply tune, and draw the plan of
// the run prepare readies — prepare decides whether the golden run is
// simulated or adopted.
func build(cs CampaignSpec, tune func(*inject.Options), prepare func(socgen.Config, riscv.Program, *fault.DB, inject.Options) (*inject.SoCRun, error)) (*Built, error) {
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
	fp, err := cs.Fingerprint()
	if err != nil {
		return nil, err
	}
	opts := cs.Options()
	if tune != nil {
		tune(&opts)
	}
	run, err := prepare(cfg, prog, fault.DefaultDB(), opts)
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

// Partial is one shard's raw outcome: the injections of its plan range in
// plan order, plus this range's share of the work counters. It is the
// unit the runstore journals and the coordinator merges; verdict-relevant
// state only, so a Partial computed by any process merges bit-identically.
type Partial struct {
	Index      int                `json:"index"`
	Start      int                `json:"start"`
	End        int                `json:"end"`
	Injections []inject.Injection `json:"injections"`
	inject.Work
	// Checksum is the integrity stamp over the canonical encoding of the
	// fields above (Index excluded — see Sum). The executor stamps it at
	// execution time; Queue.Complete, journal replay and lake promotion
	// re-verify, so corruption anywhere downstream surfaces as a typed
	// refusal and a re-simulation, never as wrong merged output. A partial
	// without one fails Verify.
	Checksum string `json:"checksum,omitempty"`
}

// Covers reports whether the partial carries a complete, internally
// consistent result for the given shard spec.
func (p *Partial) Covers(sp Spec) bool {
	return p != nil && p.Start == sp.Start && p.End == sp.End && len(p.Injections) == sp.End-sp.Start
}

// ExecuteOn runs one shard of an already-built campaign and returns its
// partial result, integrity-stamped. A panic inside the simulator is
// recovered into a typed *ExecPanicError instead of killing the caller:
// the work loop reports it through POST /v1/shards/fail so the
// coordinator can count the attempt, rather than learning about the
// crash from a silent lease expiry. Calls on the same Built must not
// overlap; Executor serializes them.
func ExecuteOn(b *Built, sp Spec) (*Partial, error) {
	if sp.Fingerprint != "" && sp.Fingerprint != b.Fingerprint {
		return nil, fmt.Errorf("shard: spec fingerprint %.12s does not match built campaign %.12s", sp.Fingerprint, b.Fingerprint)
	}
	if sp.Start < 0 || sp.End > len(b.Jobs) || sp.Start >= sp.End {
		return nil, fmt.Errorf("shard: range [%d,%d) invalid for a plan of %d injections", sp.Start, sp.End, len(b.Jobs))
	}
	var res inject.Result
	if err := runJobsRecovering(b, &res, sp.Start, sp.End); err != nil {
		return nil, err
	}
	p := &Partial{Index: sp.Index, Start: sp.Start, End: sp.End, Injections: res.Injections, Work: res.Work}
	if err := p.Stamp(); err != nil {
		return nil, err
	}
	return p, nil
}

// runJobsRecovering converts a simulator panic into *ExecPanicError.
func runJobsRecovering(b *Built, res *inject.Result, start, end int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &ExecPanicError{Msg: fmt.Sprint(r)}
		}
	}()
	return b.Run.Campaign.RunJobs(res, start, end)
}

// maxCachedCampaigns bounds the executor's per-campaign memory: a
// worker draining a long sweep would otherwise retain every campaign's
// golden run for the whole process lifetime. Eviction is
// least-recently-used by campaign; an evicted campaign that comes back
// is rebuilt — always correct, just slower, and the coordinator's
// affinity scheduling makes it rare.
const maxCachedCampaigns = 4

// Executor executes shards on the local process, building each distinct
// campaign (golden run, checkpoints, plan) at most once and reusing it
// across all of that campaign's shards — the worker-process analogue of
// the per-goroutine engine reuse inside a campaign. The cache holds at
// most maxCachedCampaigns campaigns, least-recently-used first out.
//
// The executor keeps no finished partials: every ExecuteFor simulates.
// Results are stored only by the coordinator, after it has accepted
// them, so an audit lease always re-executes its shard instead of
// replaying an earlier vote.
type Executor struct {
	mu       sync.Mutex
	built    map[string]*Built
	building map[string]*buildState
	recent   []string       // campaign fingerprints, most recent first
	pins     map[string]int // in-flight ExecuteFor calls per campaign
	m        *Metrics
	tracer   *obs.Tracer
	tune     func(*inject.Options)
	builder  Builder // never nil: LocalBuilder unless SetBuilder installs another

	// execMu serializes actual shard simulation: a shard already fans out
	// over all cores internally, so concurrent simulations would only
	// thrash. Builds and cache lookups do not hold it.
	execMu sync.Mutex

	// execHook, when set, runs after the campaign is built and before the
	// shard simulates — the window in which cache eviction used to be able
	// to drop a Built a batch still held. Test-only.
	execHook func()
}

// buildState tracks one in-flight campaign build so concurrent
// ExecuteFor calls for the same campaign wait for it instead of building
// twice.
type buildState struct {
	done chan struct{}
	err  error
}

// NewExecutor returns an empty executor that builds campaigns locally.
func NewExecutor() *Executor {
	return &Executor{
		built:    map[string]*Built{},
		building: map[string]*buildState{},
		pins:     map[string]int{},
		builder:  LocalBuilder{},
	}
}

// SetBuilder installs the campaign-construction backend; nil restores
// the default local build.
func (e *Executor) SetBuilder(b Builder) {
	if b == nil {
		b = LocalBuilder{}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.builder = b
}

// SetPartialCache does nothing: the executor stores no finished partials.
//
// Deprecated: results are stored only by the coordinator once accepted.
func (e *Executor) SetPartialCache(PartialCache) {}

// SetMetrics attaches obs instrumentation: the registry behind m carries
// the per-sweep cost series, and tr gets "golden" (campaign build) /
// "execute" (per shard, tid = shard index) spans. Pass nils to detach.
func (e *Executor) SetMetrics(m *Metrics, tr *obs.Tracer) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.m = m
	e.tracer = tr
}

// SetTune installs process-local option tuning applied to every campaign
// this executor builds — the BuildLocal hook, reachable from the cache
// path. Tuning changes how fast shards execute (worker count, checkpoint
// pitch, metrics sinks), never what they compute.
func (e *Executor) SetTune(tune func(*inject.Options)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.tune = tune
}

// touch marks a campaign most-recently-used and evicts the stalest
// campaigns' builds beyond the cache bound. Campaigns pinned by an
// in-flight ExecuteFor are never evicted — a batch mid-simulation must
// keep its golden checkpoints — so the cache may transiently exceed the
// bound while everything in it is in use.
// Callers hold e.mu.
func (e *Executor) touch(fp string) {
	found := false
	for i, got := range e.recent {
		if got == fp {
			copy(e.recent[1:i+1], e.recent[:i])
			e.recent[0] = fp
			found = true
			break
		}
	}
	if !found {
		e.recent = append([]string{fp}, e.recent...)
	}
	over := len(e.recent) - maxCachedCampaigns
	for i := len(e.recent) - 1; i >= 0 && over > 0; i-- {
		evict := e.recent[i]
		if e.pins[evict] > 0 {
			continue
		}
		e.recent = append(e.recent[:i], e.recent[i+1:]...)
		delete(e.built, evict)
		over--
	}
}

// Adopt seeds the cache with an externally built campaign, so a process
// that already built one does not build it twice. A Built from
// BuildForPlanning cannot execute, so it is never adopted.
func (e *Executor) Adopt(b *Built) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.built[b.Fingerprint] = b
	e.touch(b.Fingerprint)
}

// ExecuteFor runs one shard, building its campaign on first use, and
// always simulates it. Execution is serialized: a shard already fans out
// over all cores internally, so concurrent calls would only thrash. The
// shard's spend is attributed to sweep, the fp12 from Lease.Sweep: the
// executed partial's Work and the shard wall are counted into
// sweep_cost_* series labeled with it; empty disables attribution.
// Attribution is pure accounting — the computed Partial is bit-identical
// either way.
func (e *Executor) ExecuteFor(sp Spec, sweep string) (*Partial, error) {
	fp, err := sp.Campaign.Fingerprint()
	if err != nil {
		return nil, err
	}
	if sp.Fingerprint != "" && sp.Fingerprint != fp {
		return nil, fmt.Errorf("shard: spec fingerprint %.12s does not match its campaign spec %.12s", sp.Fingerprint, fp)
	}
	sp.Fingerprint = fp

	e.mu.Lock()
	reg := e.m.Registry()
	if reg == nil {
		sweep = ""
	}
	// Pin the campaign for the rest of the call: eviction skips pinned
	// fingerprints, so the Built (and its golden checkpoints) cannot be
	// dropped out from under this shard by concurrent Adopt/ExecuteFor
	// traffic on other campaigns.
	e.pins[fp]++
	defer func() {
		e.mu.Lock()
		if e.pins[fp]--; e.pins[fp] <= 0 {
			delete(e.pins, fp)
		}
		e.mu.Unlock()
	}()
	b, err := e.campaignFor(fp, sp)
	hook := e.execHook
	e.mu.Unlock()
	if err != nil {
		return nil, err
	}

	if hook != nil {
		hook()
	}

	e.execMu.Lock()
	start := time.Now()
	p, err := ExecuteOn(b, sp)
	if err != nil {
		e.execMu.Unlock()
		return nil, err
	}
	if sweep != "" {
		inject.NewCostMetrics(reg, sweep).Record(p.Work)
		reg.NewCounter("sweep_cost_shards_total", "Shards executed for the sweep on this worker.", "sweep", sweep).Inc()
		reg.NewCounter("sweep_cost_shard_wall_ns_total", "Shard execution wall nanoseconds attributed to the sweep.", "sweep", sweep).
			Add(uint64(time.Since(start).Nanoseconds()))
	}
	e.tracer.Span("execute", "shard", 0, int64(sp.Index), start, map[string]any{
		"campaign": Short(fp), "shard": sp.Index, "start": sp.Start, "end": sp.End,
	})
	e.execMu.Unlock()
	return p, nil
}

// campaignFor returns the Built for fp, building it via the installed
// Builder on first use. Concurrent callers for the same campaign wait
// for the in-flight build instead of duplicating it. Called with e.mu
// held; returns with e.mu held.
func (e *Executor) campaignFor(fp string, sp Spec) (*Built, error) {
	for {
		if b, ok := e.built[fp]; ok {
			e.touch(fp)
			return b, nil
		}
		if st, ok := e.building[fp]; ok {
			e.mu.Unlock()
			<-st.done
			e.mu.Lock()
			if st.err != nil {
				return nil, st.err
			}
			continue
		}
		st := &buildState{done: make(chan struct{})}
		e.building[fp] = st
		builder := e.builder
		tune := e.tune
		tracer := e.tracer
		e.mu.Unlock()

		start := time.Now()
		b, fetched, err := builder.Build(sp.Campaign, tune)
		if err == nil && !fetched {
			// Only a real local golden build earns the span — a fetch from
			// the artifact lake is not a build, which is what lets traces
			// prove a campaign's golden run happened once fleet-wide.
			tracer.Span("golden", "shard", 0, 0, start, map[string]any{"campaign": Short(fp)})
		}

		e.mu.Lock()
		st.err = err
		if err == nil {
			e.built[fp] = b
			e.touch(fp)
		}
		delete(e.building, fp)
		close(st.done)
		return b, err
	}
}
