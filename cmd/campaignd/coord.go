package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/capi"
	"repro/internal/inject"
	"repro/internal/lake"
	"repro/internal/obs"
	"repro/internal/runstore"
	"repro/internal/shard"
	"repro/internal/sweep"
)

// The coordinator is a long-lived, multi-sweep service: sweeps are
// resources, submitted, watched and cancelled over the versioned API
// documented in internal/capi. Any number of sweeps are live at once;
// lease/complete/renew route across all of them (completions and
// renewals by campaign fingerprint — the durable key a worker always
// holds, because an expired lease ID is forgotten by the pool), and
// each sweep builds, drains, merges and renders independently. The
// -sweep/-soc flags are nothing special anymore: they are a
// self-submission performed at startup, exactly equivalent to POSTing
// the same grid to /v1/sweeps.

// errCancelled is drive's internal "the sweep was cancelled" signal.
var errCancelled = errors.New("sweep cancelled")

// sweepRun is one sweep resource: its grid, its lease pool, its
// lifecycle state, and — once done — its rendered output.
type sweepRun struct {
	fp     string
	grid   sweep.Grid
	pool   *sweep.Pool
	cfps   []string        // campaign fingerprints, parallel to grid.Spec.Items
	params json.RawMessage // declarative grid params, journaled so a standby can rebuild the sweep
	seq    int             // submission order, for lease routing

	state    string // capi.State*
	stateMsg string // failure detail when state is failed
	rendered []byte // the grid's rendered artifact, set when done

	stop     chan struct{} // closed on cancel; ends the build/merge loops
	stopOnce sync.Once
	finished chan struct{} // closed when the run goroutine exits
}

// registry is the coordinator's sweep table plus everything the
// handlers share: the journal, the clock, and the change signal the
// serve loop blocks on.
type registry struct {
	mu     sync.Mutex
	sweeps map[string]*sweepRun // by sweep fingerprint
	order  []*sweepRun          // submission order
	byCamp map[string]*sweepRun // campaign fingerprint -> owning sweep
	// Finished partials live in one ordered tier list. tiers[0] is
	// journaled, the in-memory map (behind mu): authoritative, first
	// completion wins. Behind it, in write-through order, the journal
	// (write-only at runtime — it was replayed into memory at startup)
	// and the artifact lake, each present only when configured.
	journaled shard.MemPartials
	tiers     shard.Tiers
	store     *runstore.Store // nil = no journal
	shards    int
	ttl       time.Duration
	queue     shard.QueueConfig // every pool's queues are built from it
	seq       int
	now       func() time.Time
	stdout    *syncWriter
	log       *slog.Logger  // structured narration; epoch-tagged when led
	obs       *obs.Registry // metrics exposition; nil only in unit tests
	fleet     *obs.Fleet    // worker-pushed metrics federation; nil only in unit tests
	tracer    *obs.Tracer   // shard-lifecycle span journal; nil = tracing off
	lake      *lake.Store   // fleet-wide artifact lake; nil = disabled
	builder   shard.Builder // campaign construction backend: local, or lake-backed when lake is set
	initial   *sweepRun     // the self-submitted sweep, if any
	outPath   string        // initial sweep's rendered-output file
	outDir    string        // initial sweep's per-campaign JSON directory
	submitted bool          // a sweep was ever submitted (survives purges)
	draining  bool          // graceful shutdown: leases and submissions answer 503 + Retry-After
	dead      bool          // crash-stopped (deposed or test-killed): no further journal writes
	changed   chan struct{}

	// Worker health, guarded by its own mutex: the pool's audit hooks run
	// while the pool lock is held, so they must not call back into any
	// pool (g.mu alone is safe — no g.mu section takes a pool lock). A
	// worker outvoted in workerStrikeThreshold audits is quarantined: its
	// lease requests are refused with a typed error until the coordinator
	// restarts.
	healthMu    sync.Mutex
	strikes     map[string]int
	quarWorkers map[string]bool
}

// workerStrikeThreshold is how many lost audit votes quarantine a worker.
const workerStrikeThreshold = 2

func newRegistry(opts serveOpts, epoch uint64, store *runstore.Store, journaled shard.MemPartials, stdout *syncWriter) *registry {
	lg := newLogger(stdout)
	if epoch > 0 {
		lg = lg.With("epoch", epoch)
	}
	if journaled == nil {
		journaled = shard.MemPartials{}
	}
	g := &registry{
		log:         lg,
		sweeps:      map[string]*sweepRun{},
		byCamp:      map[string]*sweepRun{},
		journaled:   journaled,
		store:       store,
		shards:      opts.shards,
		ttl:         opts.leaseTTL,
		queue:       opts.queue,
		builder:     shard.LocalBuilder{},
		now:         time.Now,
		stdout:      stdout,
		outPath:     opts.outPath,
		outDir:      opts.outDir,
		changed:     make(chan struct{}, 1),
		strikes:     map[string]int{},
		quarWorkers: map[string]bool{},
	}
	g.queue.Epoch = epoch
	g.queue.OnStrike = g.strikeWorker
	g.queue.OnReplace = func(fp string, p *shard.Partial) {
		g.log.Warn("audit majority replaced shard result", "campaign", shard.Short(fp), "shard", p.Index)
		g.record(fp, p, true)
	}
	g.tiers = shard.Tiers{memTier{g}}
	if store != nil {
		g.tiers = append(g.tiers, store.Tier(func(fp string, p *shard.Partial, err error) {
			// The result is already accepted and merging will proceed; a
			// journal write failure only weakens crash recovery.
			g.log.Warn("journal append failed", "campaign", shard.Short(fp), "shard", p.Index, "err", err)
		}))
	}
	return g
}

// memTier is the registry's in-memory partials as a cache tier: the same
// map, taken behind g.mu.
type memTier struct{ g *registry }

func (t memTier) GetPartial(fp string, start, end int) *shard.Partial {
	t.g.mu.Lock()
	defer t.g.mu.Unlock()
	return t.g.journaled.GetPartial(fp, start, end)
}

func (t memTier) PutPartial(fp string, p *shard.Partial) {
	t.g.mu.Lock()
	defer t.g.mu.Unlock()
	t.g.journaled.PutPartial(fp, p)
}

// ping nudges the serve loop after any submission or terminal
// transition; the buffered channel coalesces bursts.
func (g *registry) ping() {
	select {
	case g.changed <- struct{}{}:
	default:
	}
}

// idle reports whether the coordinator has nothing left to serve: at
// least one sweep was ever submitted and all still-registered ones are
// terminal (a purged sweep leaves the registry but still counts as having
// been served).
func (g *registry) idle() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.submitted {
		return false
	}
	for _, sr := range g.order {
		if !capi.TerminalState(sr.state) {
			return false
		}
	}
	return true
}

// submit registers a sweep and starts its run goroutine. Submission is
// idempotent on the sweep fingerprint: a live or done duplicate returns
// the existing resource; a cancelled or failed one is replaced by a
// fresh run (journaled shards — including those a cancelled run's
// workers delivered mid-flight — restore on open, so re-submission
// resumes rather than re-simulates). Grids overlapping a live sweep's
// campaigns are refused: completions route by campaign fingerprint, and
// two live owners would make that routing ambiguous.
func (g *registry) submit(grid sweep.Grid, params json.RawMessage, initial bool) (*sweepRun, bool, error) {
	fp, err := grid.Spec.Fingerprint()
	if err != nil {
		return nil, false, err
	}
	cfps := make([]string, len(grid.Spec.Items))
	for i, it := range grid.Spec.Items {
		if cfps[i], err = it.Campaign.Fingerprint(); err != nil {
			return nil, false, err
		}
	}
	cfg := g.queue
	cfg.AuditSeed = g.now().UnixNano()
	pool, err := sweep.NewPoolWith(grid.Spec, g.ttl, cfg)
	if err != nil {
		return nil, false, err
	}
	g.mu.Lock()
	if prev, ok := g.sweeps[fp]; ok && (prev.state == capi.StateRunning || prev.state == capi.StateDone) {
		g.mu.Unlock()
		return prev, false, nil
	}
	// Refuse overlap with other live sweeps before touching any existing
	// registration: a refused resubmission must leave the cancelled/failed
	// incarnation intact as a resource.
	for i, it := range grid.Spec.Items {
		cfp := cfps[i]
		if owner, ok := g.byCamp[cfp]; ok && !capi.TerminalState(owner.state) && owner.fp != fp {
			g.mu.Unlock()
			return nil, false, fmt.Errorf("campaign %q (%.12s) already belongs to live sweep %.12s", it.Key, cfp, owner.fp)
		}
	}
	if prev, ok := g.sweeps[fp]; ok {
		// Replace the cancelled/failed incarnation in submission order. Its
		// per-sweep gauges go too: the fresh pool re-registers under the
		// same label, and two closures exporting one series would race.
		prev.pool.UnregisterObs()
		for i, sr := range g.order {
			if sr == prev {
				g.order = append(g.order[:i], g.order[i+1:]...)
				break
			}
		}
		delete(g.sweeps, fp)
	}
	g.seq++
	sr := &sweepRun{
		fp:       fp,
		grid:     grid,
		pool:     pool,
		cfps:     cfps,
		params:   params,
		seq:      g.seq,
		state:    capi.StateRunning,
		stop:     make(chan struct{}),
		finished: make(chan struct{}),
	}
	g.sweeps[fp] = sr
	g.order = append(g.order, sr)
	g.submitted = true
	for _, cfp := range cfps {
		g.byCamp[cfp] = sr
	}
	if initial {
		g.initial = sr
	}
	g.mu.Unlock()
	g.ping()
	pool.RegisterObs(g.obs)
	g.tracer.Instant("submit", "sweep", 0, int64(sr.seq), map[string]any{
		"sweep": shard.Short(fp), "campaigns": len(grid.Spec.Items),
	})
	// Journal the submission: a warm standby rebuilds its sweep registry
	// from these records, so a sweep whose spec lives only in a dead
	// leader's memory would be unrecoverable.
	g.journalSweep(sr, capi.StateRunning)
	g.log.Info("sweep submitted", "sweep", grid.Spec.Name, "fp", shard.Short(fp),
		"campaigns", len(grid.Spec.Items), "shards", g.shards)
	go g.run(sr)
	return sr, true, nil
}

// journalSweep appends a sweep lifecycle record. runstore's compaction
// keeps only the latest record per sweep and drops terminal ones, so
// the journal carries exactly the registry a standby must rebuild.
func (g *registry) journalSweep(sr *sweepRun, state string) {
	store := g.journalStore()
	if store == nil {
		return
	}
	rec := runstore.SweepRecord{
		Fingerprint: sr.fp,
		Name:        sr.grid.Spec.Name,
		State:       state,
		Params:      sr.params,
	}
	if sr.grid.Spec.Single {
		rec.Single = &sr.grid.Spec.Items[0].Campaign
	}
	if err := store.AppendSweep(rec); err != nil {
		// Lost registry durability only; the sweep still runs here.
		g.log.Warn("journal sweep record failed", "fp", shard.Short(sr.fp), "err", err)
	}
}

// journalStore returns the journal to append to, or nil when there is
// none — or when this coordinator has crash-stopped: a deposed leader
// must never write behind its successor's back.
func (g *registry) journalStore() *runstore.Store {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.dead {
		return nil
	}
	return g.store
}

// setDraining flips the registry into graceful shutdown: lease and
// submit requests answer 503 + Retry-After from here on.
func (g *registry) setDraining() {
	g.mu.Lock()
	g.draining = true
	g.mu.Unlock()
	g.ping()
}

func (g *registry) isDraining() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.draining
}

// markDead crash-stops the registry's durable side effects and winds
// down every live sweep's build/merge loops. Used when the coordinator
// is deposed (a higher epoch holds the leader lease) or killed by the
// test harness: the journal now belongs to the successor.
func (g *registry) markDead() {
	g.mu.Lock()
	g.dead = true
	live := append([]*sweepRun(nil), g.order...)
	g.mu.Unlock()
	for _, sr := range live {
		sr.pool.Cancel()
		sr.stopOnce.Do(func() { close(sr.stop) })
	}
	g.ping()
}

// leasedShards counts shards currently leased out across every sweep,
// expiring stale leases as a side effect — the quantity a graceful
// drain waits on.
func (g *registry) leasedShards() int {
	order, _ := g.liveSweeps()
	now := g.now()
	total := 0
	for _, sr := range order {
		for _, cp := range sr.pool.Progress(now).Campaigns {
			total += cp.Shards.Leased
		}
	}
	return total
}

// cancel transitions a live sweep to cancelled: its pool stops leasing,
// its build/merge loops stop, leased shards finish (their completions
// are still accepted and journaled) or expire. Cancelling a terminal
// sweep is a no-op returning its state.
func (g *registry) cancel(sr *sweepRun) string {
	g.mu.Lock()
	if capi.TerminalState(sr.state) {
		state := sr.state
		g.mu.Unlock()
		return state
	}
	sr.state = capi.StateCancelled
	g.mu.Unlock()
	sr.pool.Cancel()
	sr.stopOnce.Do(func() { close(sr.stop) })
	g.ping()
	g.log.Info("sweep cancelled", "sweep", sr.grid.Spec.Name, "fp", shard.Short(sr.fp))
	return capi.StateCancelled
}

// run drives one sweep to a terminal state.
func (g *registry) run(sr *sweepRun) {
	defer close(sr.finished)
	err := g.drive(sr)
	g.mu.Lock()
	var state string
	switch {
	case sr.state == capi.StateCancelled || errors.Is(err, errCancelled):
		state = capi.StateCancelled
	case err != nil:
		state = capi.StateFailed
		sr.stateMsg = err.Error()
	default:
		state = capi.StateDone
	}
	g.mu.Unlock()
	// Journal the terminal record before publishing the state: anyone who
	// observes the transition (and, say, purges on it) must find the
	// journal already past it.
	g.journalSweep(sr, state)
	g.mu.Lock()
	sr.state = state
	g.mu.Unlock()
	if state == capi.StateDone && sr != g.initialSweep() {
		// An API-submitted sweep that merged and rendered has delivered:
		// its results travel over GET /v1/sweeps/{fp}/results, and the
		// journaled shards' only remaining use is speeding up an identical
		// resubmission. Mark them terminal so the next Open compacts them
		// away — a long-lived coordinator's journal stays proportional to
		// its live work, not its history. (The in-memory view keeps them,
		// so a same-process resubmission still answers instantly.) The
		// self-submitted batch-job sweep is exempt: its journal IS its
		// recovery artifact — a coordinator re-run on the same flags and
		// journal must merge and render without simulating anything, which
		// TestServeWorkEndToEnd/TestServeSweepEndToEnd pin.
		g.markJournalTerminal(sr)
	}
	if state == capi.StateFailed {
		// A failed sweep will never merge: stop its builder and refuse its
		// pending shards to the fleet, exactly as a cancel does — workers
		// must not burn hours on shards routed into a dead resource.
		sr.pool.Cancel()
		sr.stopOnce.Do(func() { close(sr.stop) })
		g.log.Error("sweep failed", "sweep", sr.grid.Spec.Name, "fp", shard.Short(sr.fp), "err", err)
	}
	g.ping()
}

// drive builds and opens the sweep's campaigns incrementally (workers
// drain earlier campaigns while later ones build), merges each campaign
// the moment its last shard lands, and renders the grid once every
// campaign is merged. It returns errCancelled when the sweep is
// cancelled mid-flight.
func (g *registry) drive(sr *sweepRun) error {
	items := sr.grid.Spec.Items

	var mu sync.Mutex
	builts := make([]*shard.Built, len(items))
	buildErr := make(chan error, 1)
	go func() {
		for i, it := range items {
			select {
			case <-sr.stop:
				return
			default:
			}
			buildStart := time.Now()
			// The artifact lake's claim-or-fetch builder when a lake is attached
			// (publishing after a real build, falling back to local on any lake
			// error), a plain local build otherwise.
			b, fetched, err := g.builder.Build(it.Campaign, nil)
			if err != nil {
				buildErr <- fmt.Errorf("building campaign %q: %v", it.Key, err)
				return
			}
			// The "golden" span marks a real golden simulation; a campaign
			// adopted from the artifact lake emits none, which is what lets a
			// fleet trace assert each golden run happened exactly once anywhere.
			if !fetched {
				g.tracer.Span("golden", "coord", 0, int64(i), buildStart,
					map[string]any{"campaign": shard.Short(b.Fingerprint)})
			}
			specs, err := sr.grid.Spec.Plan(it.Campaign, g.shards, len(b.Jobs))
			if err != nil {
				buildErr <- fmt.Errorf("planning campaign %q: %v", it.Key, err)
				return
			}
			mu.Lock()
			builts[i] = b
			mu.Unlock()
			select {
			case <-sr.stop:
				return
			default:
			}
			// Every planned shard some tier already holds — this journal's, or
			// one another sweep's plan published to the lake — restores here:
			// a resubmitted overlapping sweep completes without re-simulating
			// what the fleet already ran.
			nJournaled, err := sr.pool.Open(i, specs, g.tiers)
			if err != nil {
				buildErr <- err
				return
			}
			g.log.Info("campaign opened", "campaign", it.Key, "fp", shard.Short(b.Fingerprint),
				"soc", it.Campaign.SoC, "workload", it.Campaign.Workload, "engine", it.Campaign.Engine,
				"injections", len(b.Jobs), "shards", len(specs), "journaled", nJournaled)
		}
	}()

	results := make(map[string]*inject.Result, len(items))
	for merged := 0; merged < len(items); {
		select {
		case idx := <-sr.pool.Completed():
			// A campaign whose queue finished by quarantining shards has no
			// complete result set: fail the sweep with the poison shards named
			// rather than hang on partials that will never arrive (the bound
			// exists so one crashing shard cannot pin the fleet forever).
			if quar := sr.pool.Quarantined(idx); len(quar) > 0 {
				idxs := make([]int, 0, len(quar))
				for si := range quar {
					idxs = append(idxs, si)
				}
				sort.Ints(idxs)
				return fmt.Errorf("campaign %q: %d shard(s) quarantined as poison work; shard %d: %s",
					items[idx].Key, len(quar), idxs[0], quar[idxs[0]])
			}
			mu.Lock()
			b := builts[idx]
			builts[idx] = nil
			mu.Unlock()
			res, err := shard.Merge(b, sr.pool.Partials(idx))
			if err != nil {
				return fmt.Errorf("merging campaign %q: %v", items[idx].Key, err)
			}
			results[b.Fingerprint] = res
			merged++
			g.log.Info("campaign merged", "campaign", items[idx].Key, "fp", shard.Short(b.Fingerprint),
				"injections", len(res.Injections), "merged", merged, "campaigns", len(items))
			if sr == g.initial && g.outDir != "" {
				if err := writeResultJSON(filepath.Join(g.outDir, items[idx].Key+".json"), res); err != nil {
					return err
				}
			}
		case err := <-buildErr:
			return err
		case <-sr.stop:
			return errCancelled
		}
	}

	// Sweep-level aggregation: the merged results feed the grid's ssresf
	// renderer, bit-identical to the in-process experiment drivers.
	var rendered bytes.Buffer
	if err := sr.grid.Render(&rendered, results); err != nil {
		return err
	}
	g.mu.Lock()
	sr.rendered = rendered.Bytes()
	g.mu.Unlock()
	if sr == g.initial {
		// The self-submitted sweep keeps the batch-job surface: rendered
		// output on stdout and in -out, per-campaign JSONs in -outdir.
		if _, err := g.stdout.Write(rendered.Bytes()); err != nil {
			return err
		}
		if g.outPath != "" {
			if sr.grid.Spec.Single {
				return writeResultJSON(g.outPath, results[sr.cfps[0]])
			}
			return os.WriteFile(g.outPath, rendered.Bytes(), 0o644)
		}
	} else {
		g.log.Info("sweep done", "sweep", sr.grid.Spec.Name, "fp", shard.Short(sr.fp),
			"results", "/v1/sweeps/"+sr.fp+"/results")
	}
	return nil
}

// initialSweep returns the self-submitted sweep, if any.
func (g *registry) initialSweep() *sweepRun {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.initial
}

// droppableFingerprints returns the subset of sr's campaign fingerprints
// whose journal records may be marked dead on sr's behalf: campaigns
// another sweep has since taken over are its resumability now, and the
// self-submitted initial sweep's campaigns are never droppable — its
// journal is its recovery artifact, and a later API sweep sharing a
// campaign (possible once the initial sweep is terminal) must not
// invalidate it. Callers hold g.mu.
func (g *registry) droppableFingerprints(sr *sweepRun) []string {
	protected := map[string]bool{}
	if g.initial != nil && g.initial != sr {
		for _, cfp := range g.initial.cfps {
			protected[cfp] = true
		}
	}
	var fps []string
	for _, cfp := range sr.cfps {
		if owner, ok := g.byCamp[cfp]; ok && owner != sr {
			continue
		}
		if protected[cfp] {
			continue
		}
		fps = append(fps, cfp)
	}
	return fps
}

// markJournalTerminal appends a terminal marker for the sweep's
// droppable campaigns.
func (g *registry) markJournalTerminal(sr *sweepRun) {
	g.mu.Lock()
	store := g.store
	fps := g.droppableFingerprints(sr)
	g.mu.Unlock()
	if store == nil || len(fps) == 0 {
		return
	}
	if err := store.MarkTerminal(fps); err != nil {
		// Only journal hygiene is lost; the records stay loadable.
		g.log.Warn("journal terminal marker failed", "fp", shard.Short(sr.fp), "err", err)
	}
}

// purge removes a (terminal) sweep from the registry and eagerly drops
// its droppable campaigns' journal records: later completions for it are
// refused, GETs 404, and a resubmission starts from a clean slate.
// Campaigns another sweep has taken over — or shared with the exempt
// initial sweep — are left alone (see droppableFingerprints).
func (g *registry) purge(sr *sweepRun) {
	g.mu.Lock()
	delete(g.sweeps, sr.fp)
	for i, got := range g.order {
		if got == sr {
			g.order = append(g.order[:i], g.order[i+1:]...)
			break
		}
	}
	// Journal state is the narrow set (droppable only); routing is the
	// wide one — every campaign this sweep still owns stops resolving to
	// the removed resource.
	fps := g.droppableFingerprints(sr)
	for _, cfp := range fps {
		delete(g.journaled, cfp)
	}
	for _, cfp := range sr.cfps {
		if g.byCamp[cfp] == sr {
			delete(g.byCamp, cfp)
		}
	}
	store := g.store
	g.mu.Unlock()
	// The purged sweep's per-sweep gauges leave the exposition with it.
	sr.pool.UnregisterObs()
	if store != nil {
		if err := store.Purge(fps); err != nil {
			g.log.Warn("journal purge failed", "fp", shard.Short(sr.fp), "err", err)
		}
	}
	g.ping()
	g.log.Info("sweep purged", "sweep", sr.grid.Spec.Name, "fp", shard.Short(sr.fp))
}

// record files an accepted completion in every tier: memory, then — while
// this coordinator still leads — the journal and the lake, where any
// future sweep whose plan covers the same range adopts it instead of
// re-simulating. First wins: once a (fingerprint, range) has landed,
// later copies — a speculative backup's duplicate, or a stale-epoch
// completion arriving after a failover — are dropped without touching
// the journal, so the bytes that merged are the bytes that persist. Only
// an audit correction overwrites: memory explicitly, and the journal by
// appending, since replay is last-record-wins.
func (g *registry) record(fp string, p *shard.Partial, overwrite bool) {
	g.mu.Lock()
	if !overwrite && g.journaled.GetPartial(fp, p.Start, p.End) != nil {
		g.mu.Unlock()
		return
	}
	g.journaled.PutPartial(fp, p)
	durable := g.tiers[1:]
	if g.dead {
		durable = nil
	}
	g.mu.Unlock()
	durable.PutPartial(fp, p)
}

// strikeWorker records one lost audit vote against a worker; at
// workerStrikeThreshold the worker is quarantined — its lease requests
// answer 403 quarantined from then on, and it is counted under
// fleet_workers{state="quarantined"}. Runs as a pool audit hook (pool
// lock held), so it touches only healthMu.
func (g *registry) strikeWorker(worker string) {
	if worker == "" {
		return
	}
	g.healthMu.Lock()
	g.strikes[worker]++
	n := g.strikes[worker]
	newly := n >= workerStrikeThreshold && !g.quarWorkers[worker]
	if newly {
		g.quarWorkers[worker] = true
	}
	g.healthMu.Unlock()
	if newly {
		g.log.Warn("worker quarantined after repeated audit divergence", "worker", worker, "strikes", n)
	} else {
		g.log.Warn("worker outvoted in audit", "worker", worker, "strikes", n)
	}
}

// workerQuarantined reports whether a worker's leases are refused.
func (g *registry) workerQuarantined(worker string) bool {
	g.healthMu.Lock()
	defer g.healthMu.Unlock()
	return g.quarWorkers[worker]
}

// quarantinedWorkerCount feeds fleet_workers{state="quarantined"}.
func (g *registry) quarantinedWorkerCount() int {
	g.healthMu.Lock()
	defer g.healthMu.Unlock()
	return len(g.quarWorkers)
}

// liveSweeps returns the sweeps in submission order plus whether the
// coordinator is drained (something was submitted, everything terminal).
func (g *registry) liveSweeps() (order []*sweepRun, drained bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	order = append(order, g.order...)
	drained = g.submitted
	for _, sr := range g.order {
		if !capi.TerminalState(sr.state) {
			drained = false
		}
	}
	return order, drained
}

// routeCampaign resolves the sweep owning a campaign fingerprint.
func (g *registry) routeCampaign(fp string) (*sweepRun, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	sr, ok := g.byCamp[fp]
	return sr, ok
}

func (g *registry) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", g.handleSubmit)
	mux.HandleFunc("GET /v1/sweeps", g.handleList)
	mux.HandleFunc("GET /v1/sweeps/{fp}", g.handleSweep)
	mux.HandleFunc("GET /v1/sweeps/{fp}/results", g.handleResults)
	mux.HandleFunc("DELETE /v1/sweeps/{fp}", g.handleCancel)
	mux.HandleFunc("POST /v1/lease", g.handleLease)
	mux.HandleFunc("POST /v1/complete", g.handleComplete)
	mux.HandleFunc("POST /v1/shards/fail", g.handleFail)
	mux.HandleFunc("POST /v1/renew", g.handleRenew)
	mux.HandleFunc("POST /v1/workers/{name}/metrics", g.handlePushMetrics)
	if g.lake != nil {
		g.lake.Register(mux)
	}
	if g.obs != nil {
		mux.Handle("GET /metrics", g.obs.Handler())
	}
	if g.fleet != nil {
		mux.Handle("GET /metrics/fleet", g.fleet.Handler())
	}
	return mux
}

func (g *registry) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if g.isDraining() {
		capi.WriteUnavailable(w, time.Second, "coordinator draining; resubmit to its successor")
		return
	}
	var req capi.SubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		capi.WriteError(w, http.StatusBadRequest, capi.CodeBadRequest, "bad submit request: %v", err)
		return
	}
	grid, err := req.Params.Grid()
	if err != nil {
		capi.WriteError(w, http.StatusBadRequest, capi.CodeBadRequest, "%v", err)
		return
	}
	params, err := json.Marshal(req.Params)
	if err != nil {
		capi.WriteError(w, http.StatusBadRequest, capi.CodeBadRequest, "%v", err)
		return
	}
	sr, created, err := g.submit(grid, params, false)
	if err != nil {
		capi.WriteError(w, http.StatusConflict, capi.CodeConflict, "%v", err)
		return
	}
	g.mu.Lock()
	reply := capi.SubmitReply{
		Fingerprint: sr.fp,
		Name:        sr.grid.Spec.Name,
		Campaigns:   len(sr.grid.Spec.Items),
		State:       sr.state,
		Created:     created,
	}
	g.mu.Unlock()
	if created {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusCreated)
		json.NewEncoder(w).Encode(reply)
		return
	}
	capi.WriteJSON(w, reply)
}

func (g *registry) handleList(w http.ResponseWriter, r *http.Request) {
	order, _ := g.liveSweeps()
	out := make([]capi.SweepSummary, 0, len(order))
	now := g.now()
	for _, sr := range order {
		pr := sr.pool.Progress(now)
		g.mu.Lock()
		out = append(out, capi.SweepSummary{
			Fingerprint:    sr.fp,
			Name:           sr.grid.Spec.Name,
			State:          sr.state,
			CampaignsTotal: pr.CampaignsTotal,
			CampaignsDone:  pr.CampaignsDone,
		})
		g.mu.Unlock()
	}
	capi.WriteJSON(w, out)
}

// lookup resolves the {fp} path component; a miss writes the 404.
func (g *registry) lookup(w http.ResponseWriter, r *http.Request) (*sweepRun, bool) {
	fp := r.PathValue("fp")
	g.mu.Lock()
	sr, ok := g.sweeps[fp]
	g.mu.Unlock()
	if !ok {
		capi.WriteError(w, http.StatusNotFound, capi.CodeNotFound, "no sweep %.12s; GET /v1/sweeps lists them", fp)
		return nil, false
	}
	return sr, true
}

// status snapshots one sweep as its API status document.
func (g *registry) status(sr *sweepRun) capi.SweepStatus {
	pr := sr.pool.Progress(g.now())
	g.mu.Lock()
	defer g.mu.Unlock()
	return capi.SweepStatus{
		Fingerprint: sr.fp,
		Name:        sr.grid.Spec.Name,
		State:       sr.state,
		Error:       sr.stateMsg,
		Progress:    pr,
		Cost:        g.costOf(sr),
	}
}

// costOf totals a sweep's journaled shard results into its accounting
// block. The journaled map is first-result-wins per shard, so a shard
// that was speculated or completed twice is billed once — the cost is
// the work the sweep's results are actually built from. Nil until any
// shard has landed. Callers hold g.mu.
func (g *registry) costOf(sr *sweepRun) *capi.SweepCost {
	var w inject.Work
	shards := 0
	for _, cfp := range sr.cfps {
		for _, p := range g.journaled[cfp] {
			shards++
			w.Add(p.Work)
		}
	}
	if shards == 0 {
		return nil
	}
	// The one conversion onto the wire struct, whose field names are frozen.
	return &capi.SweepCost{
		Shards:        shards,
		InjectEvals:   w.InjectEvals,
		InjectWallNS:  w.InjectWall.Nanoseconds(),
		RestoreWallNS: w.RestoreWall.Nanoseconds(),
		WarmStarts:    w.WarmStarts,
		PrunedRuns:    w.PrunedRuns,
		DeltaRestores: w.DeltaRestores,
	}
}

func (g *registry) handleSweep(w http.ResponseWriter, r *http.Request) {
	sr, ok := g.lookup(w, r)
	if !ok {
		return
	}
	if r.URL.Query().Get("watch") == "1" {
		g.watchSweep(w, r, sr)
		return
	}
	capi.WriteJSON(w, g.status(sr))
}

func (g *registry) handleResults(w http.ResponseWriter, r *http.Request) {
	sr, ok := g.lookup(w, r)
	if !ok {
		return
	}
	g.mu.Lock()
	state, msg, rendered := sr.state, sr.stateMsg, sr.rendered
	g.mu.Unlock()
	switch state {
	case capi.StateDone:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write(rendered)
	case capi.StateCancelled:
		capi.WriteError(w, http.StatusGone, capi.CodeCancelled, "sweep %.12s was cancelled", sr.fp)
	case capi.StateFailed:
		capi.WriteError(w, http.StatusInternalServerError, capi.CodeFailed, "sweep %.12s failed: %s", sr.fp, msg)
	default:
		capi.WriteError(w, http.StatusConflict, capi.CodePending, "sweep %.12s still running; poll GET /v1/sweeps/%s", sr.fp, sr.fp)
	}
}

// handleCancel cancels a sweep; with ?purge=1 it additionally forgets it:
// the resource leaves the registry (subsequent GETs 404, resubmission
// starts fresh) and its campaigns' journal records are dropped from disk
// before the reply — the eager path of journal compaction.
func (g *registry) handleCancel(w http.ResponseWriter, r *http.Request) {
	sr, ok := g.lookup(w, r)
	if !ok {
		return
	}
	g.cancel(sr)
	st := g.status(sr)
	if r.URL.Query().Get("purge") == "1" {
		g.purge(sr)
	}
	capi.WriteJSON(w, st)
}

func (g *registry) handleLease(w http.ResponseWriter, r *http.Request) {
	if g.isDraining() {
		// Workers' retry loops sleep the hint and knock again — by then the
		// successor (a promoted standby, or nobody) answers on this address.
		capi.WriteUnavailable(w, time.Second, "coordinator draining; retry shortly")
		return
	}
	var req capi.LeaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		capi.WriteError(w, http.StatusBadRequest, capi.CodeBadRequest, "bad lease request: %v", err)
		return
	}
	if g.workerQuarantined(req.Worker) {
		capi.WriteError(w, http.StatusForbidden, capi.CodeQuarantined,
			"worker %q is quarantined after repeated audit divergence; its results are not trusted", req.Worker)
		return
	}
	order, drained := g.liveSweeps()
	now := g.now()
	for _, sr := range order {
		if l, ok := sr.pool.Lease(req.Worker, now); ok {
			name := "lease"
			switch {
			case l.Speculative:
				name = "speculated"
			case l.Audit:
				name = "audit"
			}
			g.tracer.Instant(name, "coord", 0, int64(l.Spec.Index), map[string]any{
				"worker": req.Worker, "campaign": shard.Short(l.Spec.Fingerprint), "shard": l.Spec.Index,
			})
			capi.WriteJSON(w, l)
			return
		}
	}
	if drained {
		// Everything ever submitted is terminal: the coordinator is about
		// to wind down, workers should exit rather than poll.
		w.WriteHeader(http.StatusGone)
		return
	}
	// Idle: everything leased out, later campaigns still building, or no
	// sweeps submitted yet.
	w.WriteHeader(http.StatusNoContent)
}

func (g *registry) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req capi.CompleteRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		capi.WriteError(w, http.StatusBadRequest, capi.CodeBadRequest, "bad completion: %v", err)
		return
	}
	if req.Partial == nil {
		capi.WriteError(w, http.StatusBadRequest, capi.CodeBadRequest, "completion carries no partial")
		return
	}
	fp := req.Fingerprint
	sr, ok := g.routeCampaign(fp)
	if !ok {
		capi.WriteError(w, http.StatusConflict, capi.CodeConflict, "completion names unknown campaign %.12s", fp)
		return
	}
	if err := sr.pool.Complete(fp, req.LeaseID, req.Epoch, req.Partial, g.now()); err != nil {
		if errors.Is(err, shard.ErrStaleEpoch) {
			// A completion leased by a deposed coordinator for a shard this
			// one already has. The journal offer is harmless — first-wins
			// dedupe drops it when (as always here) the live copy landed
			// first — but the worker learns its lease died with the old
			// epoch, distinctly from an ordinary duplicate.
			g.tracer.Instant("fenced", "coord", 0, int64(req.Partial.Index), map[string]any{
				"campaign": shard.Short(fp), "shard": req.Partial.Index, "epoch": req.Epoch,
			})
			g.record(fp, req.Partial, false)
			capi.WriteError(w, http.StatusConflict, capi.CodeStaleEpoch, "%v", err)
			return
		}
		if errors.Is(err, shard.ErrIntegrity) {
			// The payload's bytes do not match its own checksum: wire (or
			// worker-side) corruption. The result is refused, never journaled,
			// and the shard is back on the queue for a clean re-execution.
			g.tracer.Instant("integrity_reject", "coord", 0, int64(req.Partial.Index), map[string]any{
				"campaign": shard.Short(fp), "shard": req.Partial.Index,
			})
			capi.WriteError(w, http.StatusConflict, capi.CodeIntegrityMismatch, "%v", err)
			return
		}
		capi.WriteError(w, http.StatusConflict, capi.CodeConflict, "%v", err)
		return
	}
	g.tracer.Instant("complete", "coord", 0, int64(req.Partial.Index), map[string]any{
		"campaign": shard.Short(fp), "shard": req.Partial.Index,
	})
	g.record(fp, req.Partial, false)
	w.WriteHeader(http.StatusOK)
}

// handleFail is a worker's typed "this shard crashed me" report: the
// lease is released immediately (no TTL wait) and the shard's attempt
// count moves it toward quarantine — the containment path for poison
// work that panics every executor it lands on.
func (g *registry) handleFail(w http.ResponseWriter, r *http.Request) {
	var req capi.FailRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		capi.WriteError(w, http.StatusBadRequest, capi.CodeBadRequest, "bad failure report: %v", err)
		return
	}
	fp := req.Fingerprint
	sr, ok := g.routeCampaign(fp)
	if !ok {
		capi.WriteError(w, http.StatusConflict, capi.CodeConflict, "failure report names unknown campaign %.12s", fp)
		return
	}
	if err := sr.pool.Fail(fp, req.LeaseID, req.Reason, g.now()); err != nil {
		capi.WriteError(w, http.StatusConflict, capi.CodeConflict, "%v", err)
		return
	}
	g.tracer.Instant("fail", "coord", 0, 0, map[string]any{
		"campaign": shard.Short(fp), "worker": req.Worker, "reason": req.Reason,
	})
	g.ping()
	w.WriteHeader(http.StatusOK)
}

func (g *registry) handleRenew(w http.ResponseWriter, r *http.Request) {
	var req capi.RenewRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		capi.WriteError(w, http.StatusBadRequest, capi.CodeBadRequest, "bad renewal: %v", err)
		return
	}
	fp := req.Fingerprint
	sr, ok := g.routeCampaign(fp)
	if !ok {
		capi.WriteError(w, http.StatusConflict, capi.CodeConflict, "renewal names unknown campaign %.12s", fp)
		return
	}
	exp, err := sr.pool.Renew(fp, req.LeaseID, g.now())
	if err != nil {
		capi.WriteError(w, http.StatusConflict, capi.CodeConflict, "%v", err)
		return
	}
	capi.WriteJSON(w, capi.RenewReply{ExpiresAt: exp})
}

// serveOpts is the parsed configuration of one serve run.
type serveOpts struct {
	grid     *sweep.Grid     // self-submitted at startup; nil = start empty
	params   json.RawMessage // declarative params of the self-submitted grid, for journaling
	shards   int             // per campaign; tiny campaigns degrade to fewer
	journal  string
	lakeDir  string      // artifact-lake directory; "" = lake disabled
	lakeMax  int64       // lake size bound in bytes; 0 = lake.DefaultMaxBytes
	lake     *lake.Store // pre-opened store (tests inject one to chaos-fail it mid-sweep)
	leaseTTL time.Duration
	linger   time.Duration
	outPath  string // single: merged result JSON; sweep: rendered grid text
	outDir   string // sweep: per-campaign result JSON directory

	// Failover knobs (zero values pick the defaults below).
	addr       string        // listen address a promoted standby rebinds
	leaderTTL  time.Duration // leader-lease duration; renewed at a third of it
	drainGrace time.Duration // graceful-drain bound on waiting out leased shards

	// queue carries the scheduling and integrity knobs the flags set —
	// Speculate, AuditFrac, MaxAttempts (DESIGN.md "Integrity &
	// quarantine"); serve fills in the epoch, metrics and audit hooks.
	queue shard.QueueConfig

	// Observability (DESIGN.md "Observability"). Instrumentation never
	// feeds back into scheduling or simulation: rendered sweep output is
	// byte-identical with every field below set or unset.
	obsReg    *obs.Registry // metrics registry; nil = serve creates its own
	tracer    *obs.Tracer   // span journal; nil = created iff tracePath is set
	debugAddr string        // pprof + /metrics side server; "" = off
	tracePath string        // Chrome trace_event JSON written on exit; "" = off

	// Warm-standby preloads: a promoted standby hands serve the state it
	// tailed out of the journal instead of having serve re-read the file.
	epoch    uint64         // pre-acquired leader epoch; 0 = acquire at startup
	replayed *runstore.Fold // replaces runstore.Replay

	// Control channels; nil channels never fire.
	signals <-chan os.Signal // graceful drain trigger (SIGINT/SIGTERM)
	crash   <-chan struct{}  // test hook: crash-stop as if the process died
}

const (
	leaderSuffix      = ".leader"
	defaultLeaderTTL  = 10 * time.Second
	defaultDrainGrace = 30 * time.Second
)

func runServe(args []string) error {
	fs := flag.NewFlagSet("campaignd serve", flag.ContinueOnError)
	specOf := shard.CampaignFlags(fs)
	paramsOf := sweep.GridParamsFlags(fs)
	addr := fs.String("addr", "127.0.0.1:8372", "listen address")
	shards := fs.Int("shards", 8, "number of shards to split each campaign into")
	journal := fs.String("journal", "", "append-only shard journal, namespaced per campaign; sweeps restarted with the same journal skip finished shards")
	lakeDir := fs.String("lake-dir", "", "content-addressed artifact lake directory: golden builds and finished shard partials are published here and reused fleet-wide and across sweeps; empty disables the lake")
	lakeMax := fs.Int64("lake-max-bytes", 0, "artifact-lake size bound; least-recently-used blobs are evicted past it (0 = 4 GiB default)")
	lease := fs.Duration("lease", 10*time.Minute, "shard lease duration; workers heartbeat at a third of it, so a live shard outrunning the lease is renewed, not re-issued")
	leaderTTL := fs.Duration("leader-lease", defaultLeaderTTL, "leader-lease duration on the journal (renewed at a third of it); a standby takes over once it expires")
	drainGrace := fs.Duration("drain-grace", defaultDrainGrace, "on SIGINT/SIGTERM, how long to wait for leased shards to land before exiting anyway")
	linger := fs.Duration("linger", 3*time.Second, "idle grace: once every submitted sweep is terminal, keep serving this long (new submissions revive the server; pollers observe completion) before exiting")
	speculate := fs.Float64("speculate", sweep.DefaultSpeculateFactor, "straggler re-issue: speculatively back up a leased shard once its age exceeds this multiple of the observed average shard duration and the pool is otherwise idle; 0 disables")
	auditFrac := fs.Float64("audit-frac", 0, "result auditing: re-execute this fraction of completed shards on a different worker and cross-check verdict checksums; divergence is settled by majority vote and outvoted workers are quarantined (0 disables)")
	maxAttempts := fs.Int("max-attempts", shard.DefaultMaxAttempts, "poison-work bound: executions (primary and speculative) a shard may consume before it is quarantined and its sweep failed instead of hung (0 = unbounded)")
	standbyFlag := fs.Bool("standby", false, "warm standby: tail -follow's journal, take over serving when the leader lease expires")
	follow := fs.String("follow", "", "standby: the leader's journal to tail (implies -journal for the takeover)")
	out := fs.String("out", "", "single campaign: write the merged result JSON here; sweep: write the rendered tables here")
	outDir := fs.String("outdir", "", "sweep: write each campaign's merged result JSON into this directory, named by campaign key")
	debugAddr := fs.String("debug-addr", "", "also serve GET /metrics and net/http/pprof on this side address (the API mux serves /metrics regardless)")
	tracePath := fs.String("trace", "", "write the shard-lifecycle span journal as Chrome trace_event JSON to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *shards < 1 {
		return fmt.Errorf("-shards must be at least 1, got %d", *shards)
	}
	if err := positiveDuration("lease", *lease); err != nil {
		return err
	}
	if err := positiveDuration("leader-lease", *leaderTTL); err != nil {
		return err
	}
	if *linger < 0 {
		return fmt.Errorf("-linger must not be negative, got %v", *linger)
	}
	if *auditFrac < 0 || *auditFrac > 1 {
		return fmt.Errorf("-audit-frac must be in [0,1], got %v", *auditFrac)
	}
	if *maxAttempts < 0 {
		return fmt.Errorf("-max-attempts must not be negative, got %d", *maxAttempts)
	}
	params, isSweep, err := paramsOf()
	if err != nil {
		return err
	}
	// A campaign flag set explicitly means the classic single-campaign
	// batch mode; no campaign or sweep flags at all means an empty,
	// long-lived service that waits for POST /v1/sweeps submissions.
	single := false
	fs.Visit(func(f *flag.Flag) {
		if shard.CampaignFlagNames[f.Name] {
			single = true
		}
	})
	opts := serveOpts{
		shards:     *shards,
		journal:    *journal,
		lakeDir:    *lakeDir,
		lakeMax:    *lakeMax,
		leaseTTL:   *lease,
		leaderTTL:  *leaderTTL,
		drainGrace: *drainGrace,
		queue:      shard.QueueConfig{Speculate: *speculate, AuditFrac: *auditFrac, MaxAttempts: *maxAttempts},
		linger:     *linger,
		outPath:    *out,
		outDir:     *outDir,
		addr:       *addr,
		debugAddr:  *debugAddr,
		tracePath:  *tracePath,
	}
	// SIGINT/SIGTERM drain gracefully: stop leasing, wait (bounded by
	// -drain-grace) for leased shards to land, release leadership, exit 0.
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	opts.signals = sigCh

	if *standbyFlag {
		if *follow == "" {
			return fmt.Errorf("-standby requires -follow JOURNAL")
		}
		if single || isSweep {
			return fmt.Errorf("-standby takes no campaign or sweep flags; the registry is rebuilt from the journal")
		}
		opts.journal = *follow
		return standby(opts, os.Stdout)
	}

	switch {
	case isSweep:
		grid, err := params.Grid()
		if err != nil {
			return err
		}
		opts.grid = &grid
		if opts.params, err = json.Marshal(params); err != nil {
			return err
		}
	case single:
		cs, err := specOf()
		if err != nil {
			return err
		}
		grid := sweep.CampaignGrid(cs)
		opts.grid = &grid
	}
	if *outDir != "" {
		// Create it now: failing after the fleet has simulated for
		// minutes would lose the sweep's in-flight work.
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return fmt.Errorf("-outdir: %v", err)
		}
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	return serve(opts, ln, os.Stdout)
}

// syncWriter serializes progress lines: sweep run goroutines and their
// campaign builders all narrate to the same writer.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// serve runs the coordinator on an accepted listener. Sweeps arrive as
// POST /v1/sweeps submissions or as the one self-submission opts.grid
// describes; each drives itself to a terminal state. serve exits once
// the registry is idle — at least one sweep was submitted and all are
// terminal — and stays idle through the -linger grace window (new
// submissions revive it; lingering also lets polling workers observe
// the 410 drained signal instead of a dead socket). Split from runServe
// so the end-to-end tests can drive it on an ephemeral port.
func serve(opts serveOpts, ln net.Listener, rawStdout io.Writer) error {
	stdout := &syncWriter{w: rawStdout}
	if opts.leaderTTL <= 0 {
		opts.leaderTTL = defaultLeaderTTL
	}
	if opts.drainGrace <= 0 {
		opts.drainGrace = defaultDrainGrace
	}

	// Observability: serve always has a registry (GET /metrics is part of
	// the API surface); the tracer only exists when someone will read it.
	reg := opts.obsReg
	if reg == nil {
		reg = obs.NewRegistry()
	}
	tracer := opts.tracer
	if tracer == nil && opts.tracePath != "" {
		tracer = obs.NewTracer()
	}
	rm := runstore.NewMetrics(reg)

	var store *runstore.Store
	replayed := opts.replayed
	var err error
	if opts.journal != "" {
		if replayed == nil {
			if replayed, err = runstore.Replay(opts.journal); err != nil {
				return err
			}
		}
		if store, err = runstore.Open(opts.journal); err != nil {
			return err
		}
		store.SetMetrics(rm)
		defer store.Close()
	}
	if replayed == nil {
		replayed = &runstore.Fold{}
	}

	// Leadership: with a journal, serve runs under a fenced epoch recorded
	// in the journal's .leader file and stamped on every lease. A promoted
	// standby arrives with its epoch pre-acquired (opts.epoch); a fresh
	// leader claims the file's epoch + 1.
	epoch := opts.epoch
	var leaderPath string
	deposed := make(chan struct{})
	stopLeader := func() {}
	if opts.journal != "" {
		leaderPath = opts.journal + leaderSuffix
		if epoch == 0 {
			prev, err := runstore.ReadLeaderLease(leaderPath)
			if err != nil {
				return err
			}
			if prev.Epoch > 0 && !prev.Expired(time.Now()) {
				return fmt.Errorf("journal %s is led by %s (epoch %d) until %s; use -standby to take over on expiry",
					opts.journal, prev.Owner, prev.Epoch, prev.ExpiresAt.Format(time.RFC3339))
			}
			epoch = prev.Epoch + 1
		}
		me := runstore.LeaderLease{
			Epoch:     epoch,
			Owner:     defaultWorkerName(),
			Addr:      ln.Addr().String(),
			ExpiresAt: time.Now().Add(opts.leaderTTL),
		}
		if err := runstore.WriteLeaderLease(leaderPath, me); err != nil {
			return err
		}
		rm.LeaderEpoch.Set(float64(epoch))
		stopLeader = startLeaderRenewal(leaderPath, me, opts.leaderTTL, rm, deposed)
		defer stopLeader()
	}

	g := newRegistry(opts, epoch, store, replayed.Partials, stdout)
	g.obs, g.queue.Metrics, g.tracer = reg, shard.NewMetrics(reg), tracer
	g.fleet = obs.NewFleet(0)
	g.fleet.SetQuarantined(g.quarantinedWorkerCount)
	if replayed.Dropped > 0 {
		g.log.Warn("journal records failed their integrity checksum and were skipped; those shards re-simulate",
			"journal", opts.journal, "dropped", replayed.Dropped)
	}

	// Artifact lake: golden builds and finished partials become durable,
	// fleet-wide, cross-sweep cache objects. Strictly an accelerator — the
	// registry's build and merge paths fall back to local computation on
	// any lake error, so rendered output is byte-identical with the lake
	// on, off, or failing mid-sweep.
	lakeStore := opts.lake
	if lakeStore == nil && opts.lakeDir != "" {
		if lakeStore, err = lake.Open(opts.lakeDir, opts.lakeMax); err != nil {
			return err
		}
	}
	if lakeStore != nil {
		lakeStore.SetMetrics(lake.NewMetrics(reg))
		g.lake = lakeStore
		g.builder = lake.NewStoreBuilder(lakeStore, defaultWorkerName())
		g.tiers = append(g.tiers, lake.NewStorePartials(lakeStore))
		g.log.Info("artifact lake attached", "dir", lakeStore.Dir(), "bytes", lakeStore.Bytes())
	}
	if opts.tracePath != "" {
		defer func() {
			if err := tracer.WriteFile(opts.tracePath); err != nil {
				g.log.Warn("trace write failed", "path", opts.tracePath, "err", err)
			}
		}()
	}
	if opts.debugAddr != "" {
		dbgAddr, stopDebug, err := startDebugServer(opts.debugAddr, reg)
		if err != nil {
			return err
		}
		defer stopDebug()
		g.log.Info("debug server listening", "addr", dbgAddr)
	}
	g.log.Info("serving", "addr", ln.Addr().String(), "lease", opts.leaseTTL, "shards", opts.shards)

	if opts.grid != nil {
		if _, _, err := g.submit(*opts.grid, opts.params, true); err != nil {
			return err
		}
	}
	// Resubmit journaled running sweeps — the registry a dead leader left
	// behind. Idempotent against the self-submission above, so a restart
	// on the same flags keeps its batch-job surface.
	for _, rec := range replayed.Sweeps() {
		if rec.State != runstore.SweepStateRunning {
			continue
		}
		grid, err := gridFromRecord(rec)
		if err != nil {
			// An unreadable registry record must not sink the sweeps that do
			// decode: serve what can be served, say what cannot.
			g.log.Warn("journaled sweep not rebuilt", "fp", shard.Short(rec.Fingerprint), "err", err)
			continue
		}
		if _, _, err := g.submit(grid, rec.Params, false); err != nil {
			g.log.Warn("journaled sweep not rebuilt", "fp", shard.Short(rec.Fingerprint), "err", err)
		}
	}

	// Answer requests only once the startup sweeps are registered: a client
	// that connects the moment the socket is bound must not be told the
	// sweep this coordinator was started to run does not exist.
	srv := &http.Server{Handler: g.mux()}
	defer srv.Close()
	srvErr := make(chan error, 1)
	go func() { srvErr <- srv.Serve(ln) }()

	// crashStop tears down as an abruptly dead process would: no drain, no
	// journal writes, and — critically — no leader-lease release, so the
	// takeover clock a standby watches runs out for real.
	crashStop := func(reason string) error {
		g.markDead()
		stopLeader()
		srv.Close()
		return fmt.Errorf("crash-stopped: %s", reason)
	}

	// Serve until idle (every submitted sweep terminal and the linger
	// window passed without a new submission), or until a drain signal or
	// crash ends the run early. One select serves all three phases; the
	// arms a phase does not want stay nil: the linger timer only runs
	// while idle, the drain ticker and deadline only while draining, and a
	// second signal cannot restart a drain.
	signals := opts.signals
	var drainDeadline <-chan time.Time
	drainPoll := time.NewTicker(100 * time.Millisecond)
	defer drainPoll.Stop()
loop:
	for {
		var linger, poll <-chan time.Time
		switch {
		case drainDeadline != nil:
			if g.leasedShards() == 0 {
				break loop
			}
			poll = drainPoll.C
		case g.idle():
			linger = time.After(opts.linger)
		}
		select {
		case <-g.changed:
		case <-poll:
		case <-linger:
			if g.idle() {
				break loop
			}
		case <-drainDeadline:
			g.log.Warn("drain grace expired; exiting anyway", "leased", g.leasedShards())
			break loop
		case sig := <-signals:
			signals = nil
			g.setDraining()
			drainDeadline = time.After(opts.drainGrace)
			g.log.Info("draining", "why", sig.String()+" received", "leased", g.leasedShards(), "grace", opts.drainGrace)
		case <-opts.crash:
			return crashStop("test crash hook")
		case <-deposed:
			return crashStop("deposed: a newer epoch holds the leader lease")
		case err := <-srvErr:
			return fmt.Errorf("serving: %v", err)
		}
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		g.log.Warn("shutdown", "err", err)
	}
	if leaderPath != "" {
		// A clean exit hands leadership over immediately: rewrite the lease
		// already expired so a standby needn't wait out the TTL. Addr stays:
		// the promoted standby inherits it, so workers keep their URL across
		// planned restarts too, not just crashes.
		stopLeader()
		release := runstore.LeaderLease{Epoch: epoch, Owner: defaultWorkerName(), Addr: ln.Addr().String(), ExpiresAt: time.Now()}
		if err := runstore.WriteLeaderLease(leaderPath, release); err != nil {
			g.log.Warn("leader lease release failed", "err", err)
		}
	}
	if drainDeadline != nil {
		g.log.Info("drained; leadership released")
	}

	// The self-submitted sweep is the batch job serve was asked to run;
	// its failure is serve's failure. Submitted sweeps report theirs
	// through the API instead.
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.initial != nil && g.initial.state == capi.StateFailed {
		return errors.New(g.initial.stateMsg)
	}
	return nil
}

// startLeaderRenewal heartbeats the leader lease at a third of its TTL.
// Each tick first reads the file: a higher epoch there means a standby
// (correctly, per the expiry this leader let happen) took over — the
// deposed channel closes and this incarnation must crash-stop, never
// write again. Successful heartbeats drive runstore_leader_renewals_total
// and refresh runstore_leader_epoch. The returned stop is idempotent and
// returns only once the heartbeat goroutine has exited, so no renewal
// can land after it — in particular not on top of the expired lease a
// clean exit writes next to release leadership.
func startLeaderRenewal(path string, me runstore.LeaderLease, ttl time.Duration, m *runstore.Metrics, deposed chan<- struct{}) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	var once sync.Once
	interval := ttl / 3
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	go func() {
		defer close(finished)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				cur, err := runstore.ReadLeaderLease(path)
				if err == nil && cur.Epoch > me.Epoch {
					close(deposed)
					return
				}
				me.ExpiresAt = time.Now().Add(ttl)
				if err := runstore.WriteLeaderLease(path, me); err != nil {
					fmt.Fprintln(os.Stderr, "campaignd: leader lease renewal:", err)
				} else if m != nil {
					m.LeaderRenewals.Inc()
					m.LeaderEpoch.Set(float64(me.Epoch))
				}
			}
		}
	}()
	return func() {
		once.Do(func() { close(done) })
		<-finished
	}
}

// gridFromRecord rebuilds a submitted sweep from its journal record —
// the declarative params an API submission carried, or the single
// campaign spec of a -soc self-submission.
func gridFromRecord(rec runstore.SweepRecord) (sweep.Grid, error) {
	if rec.Single != nil {
		return sweep.CampaignGrid(*rec.Single), nil
	}
	if len(rec.Params) == 0 {
		return sweep.Grid{}, fmt.Errorf("sweep record carries neither params nor a campaign spec")
	}
	var params sweep.GridParams
	if err := json.Unmarshal(rec.Params, &params); err != nil {
		return sweep.Grid{}, err
	}
	return params.Grid()
}

// standby tails a leader's journal, mirroring the shard results and
// sweep registry as they land, and takes over the moment the leader
// lease expires: it bumps the epoch (fencing the old leader's leases),
// rebinds the leader's address, and serves the journal's sweeps exactly
// where the dead leader left them — journaled shards restore, only the
// remainder is ever simulated again.
func standby(opts serveOpts, rawStdout io.Writer) error {
	stdout := &syncWriter{w: rawStdout}
	logger := newLogger(stdout)
	if opts.leaderTTL <= 0 {
		opts.leaderTTL = defaultLeaderTTL
	}
	leaderPath := opts.journal + leaderSuffix
	tail := runstore.NewTail(opts.journal)
	defer tail.Close()

	// The standby shares one registry with the serve it may become, so a
	// scraper watching the promoted coordinator sees the follower history
	// too. While following, its replication lag is the metric that matters.
	if opts.obsReg == nil {
		opts.obsReg = obs.NewRegistry()
	}
	opts.obsReg.NewGaugeFunc("runstore_tail_lag_bytes",
		"Bytes of leader journal the standby's tail has not applied yet.",
		func() float64 { return float64(tail.Lag()) })
	if opts.debugAddr != "" {
		// The debug server outlives the takeover: serve is handed
		// debugAddr="" so it does not fight for the same port.
		dbgAddr, stopDebug, err := startDebugServer(opts.debugAddr, opts.obsReg)
		if err != nil {
			return err
		}
		defer stopDebug()
		opts.debugAddr = ""
		logger.Info("debug server listening", "addr", dbgAddr)
	}

	// drainTail folds everything currently readable into the replayed
	// state. A journal replacement (the leader compacting) resets it and
	// replays — idempotent, because the fold is deterministic in record
	// order.
	replayed := &runstore.Fold{}
	drainTail := func() error {
		for {
			rec, ev, err := tail.Next()
			if err != nil {
				return err
			}
			switch ev {
			case runstore.TailRecord:
				replayed.Apply(rec)
			case runstore.TailReset:
				replayed = &runstore.Fold{}
			case runstore.TailCaughtUp:
				return nil
			}
		}
	}

	poll := opts.leaderTTL / 4
	if poll < 10*time.Millisecond {
		poll = 10 * time.Millisecond
	}
	logger.Info("standby following", "journal", opts.journal, "leaderLease", opts.leaderTTL)
	announced := uint64(0)
	var lease runstore.LeaderLease
	for {
		if err := drainTail(); err != nil {
			return err
		}
		var err error
		if lease, err = runstore.ReadLeaderLease(leaderPath); err != nil {
			return err
		}
		// Epoch 0 means no leader has ever led this journal; a standby
		// follows, it does not found. Wait for a leader to appear.
		if lease.Epoch > 0 && lease.Expired(time.Now()) {
			break
		}
		if lease.Epoch != announced {
			logger.Info("standby following leader", "owner", lease.Owner, "epoch", lease.Epoch, "addr", lease.Addr)
			announced = lease.Epoch
		}
		select {
		case <-time.After(poll):
		case sig := <-opts.signals:
			logger.Info("standby exiting without taking over", "signal", sig.String())
			return nil
		}
	}

	// Take over. Claim the fenced epoch first — a zombie leader's next
	// renewal tick reads it and crash-stops — then drain the last records
	// it flushed, then fight it for the socket.
	epoch := lease.Epoch + 1
	addr := opts.addr
	if lease.Addr != "" {
		addr = lease.Addr
	}
	me := runstore.LeaderLease{
		Epoch:     epoch,
		Owner:     defaultWorkerName(),
		Addr:      addr,
		ExpiresAt: time.Now().Add(opts.leaderTTL),
	}
	if err := runstore.WriteLeaderLease(leaderPath, me); err != nil {
		return err
	}
	if err := drainTail(); err != nil {
		return err
	}
	tail.Close()

	// The dead leader's socket may linger (its process dying slowly, or a
	// zombie that has not yet noticed the fence); keep trying the bind.
	var ln net.Listener
	var err error
	bindDeadline := time.Now().Add(10 * opts.leaderTTL)
	for {
		if ln, err = net.Listen("tcp", addr); err == nil {
			break
		}
		if time.Now().After(bindDeadline) {
			return fmt.Errorf("standby takeover: %s never freed: %v", addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}

	nShards := 0
	for _, m := range replayed.Partials {
		nShards += len(m)
	}
	logger.Info("standby taking over", "expiredEpoch", lease.Epoch, "epoch", epoch, "addr", addr,
		"sweeps", len(replayed.Sweeps()), "journaledShards", nShards)

	// The follower's lag gauge dies with the tail; the promoted serve
	// re-registers the runstore family over the shared registry.
	opts.obsReg.Unregister("runstore_tail_lag_bytes")

	takeover := opts
	takeover.grid = nil
	takeover.params = nil
	takeover.epoch = epoch
	takeover.replayed = replayed
	return serve(takeover, ln, rawStdout)
}

func writeResultJSON(path string, res *inject.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return res.WriteJSON(f)
}
