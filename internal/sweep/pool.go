package sweep

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/shard"
)

// Pool is the cross-campaign scheduler: every member campaign's shards
// feed one lease pool, so a worker fleet drains a whole experiment grid
// through a single lease/complete loop. Like shard.Queue it is pure
// bookkeeping — deterministic under test, clock passed in — and it
// layers three sweep concerns on top of the per-campaign queues:
//
//   - Incremental opening. Planning a campaign's shards requires building
//     it (netlist, golden run, plan), which for a ten-benchmark grid is
//     minutes of coordinator work. Campaigns therefore open one by one as
//     their plans become available, and workers start on the first
//     campaign while later ones are still building.
//
//   - Golden-run-affinity ordering. A worker that just executed a shard
//     of campaign C has C built and cached (golden run, checkpoints,
//     plan); the pool keeps handing it C's shards while any are pending
//     and only then switches it to another campaign — the one with the
//     fewest active workers, so a fleet spreads over the grid instead of
//     convoying. Affinity is a scheduling preference, never a
//     correctness matter: any lease order merges bit-identically.
//
//   - Per-campaign completion. The moment a campaign's last shard lands
//     the pool signals it on Completed(), so the coordinator merges and
//     releases that campaign without waiting for the rest of the grid.
type Pool struct {
	mu        sync.Mutex
	name      string
	sweepFP   string
	items     []Item
	fps       []string
	byFP      map[string]int
	ttl       time.Duration
	cfg       shard.QueueConfig // every campaign's queue is built from it
	queues    []*shard.Queue    // nil until opened
	restored  []int             // per campaign: shards served from journal/lake at Open
	completed []bool
	doneCount int
	affinity  map[string]int // worker -> campaign index of its last lease
	compCh    chan int
	doneCh    chan struct{}
	cancelled bool
	obsReg    *obs.Registry // holds this pool's per-sweep gauges
	events    *eventLog     // ordered progress stream for watchers
}

// DefaultSpeculateFactor is the straggler threshold: a leased shard is
// eligible for speculative re-issue once its age exceeds this multiple
// of the campaign's observed mean shard duration. Three keeps speculation
// rare enough that ordinary shard-size variance (shards of one campaign
// are near-uniform) almost never triggers it.
const DefaultSpeculateFactor = 3.0

// NewPool builds an empty pool over a validated sweep with the default
// queue configuration: straggler speculation at DefaultSpeculateFactor
// and nothing else. Campaigns become leasable as Open is called for each.
func NewPool(ss SweepSpec, ttl time.Duration) (*Pool, error) {
	return NewPoolWith(ss, ttl, shard.QueueConfig{Speculate: DefaultSpeculateFactor})
}

// NewPoolWith is NewPool under the coordinator's queue configuration,
// fixed for the pool's lifetime: every campaign's queue is built from
// cfg at Open. Only the audit seed varies per campaign (cfg.AuditSeed +
// campaign index), so each queue's sampling stream is its own and
// deterministic. The audit hooks run with the pool's lock held — they
// must not call back into the pool.
func NewPoolWith(ss SweepSpec, ttl time.Duration, cfg shard.QueueConfig) (*Pool, error) {
	if err := ss.Validate(); err != nil {
		return nil, err
	}
	sweepFP, err := ss.Fingerprint()
	if err != nil {
		return nil, err
	}
	p := &Pool{
		name:      ss.Name,
		sweepFP:   sweepFP,
		items:     ss.Items,
		fps:       make([]string, len(ss.Items)),
		byFP:      make(map[string]int, len(ss.Items)),
		ttl:       ttl,
		cfg:       cfg,
		queues:    make([]*shard.Queue, len(ss.Items)),
		restored:  make([]int, len(ss.Items)),
		completed: make([]bool, len(ss.Items)),
		affinity:  map[string]int{},
		compCh:    make(chan int, len(ss.Items)),
		doneCh:    make(chan struct{}),
		events:    newEventLog(),
	}
	for i, it := range ss.Items {
		fp, err := it.Campaign.Fingerprint()
		if err != nil {
			return nil, err
		}
		p.fps[i] = fp
		p.byFP[fp] = i
	}
	p.emit("submit", "", -1, "")
	return p, nil
}

// obsGauges is the per-sweep gauge set RegisterObs installs and
// UnregisterObs removes.
var obsGauges = []struct {
	name, help string
	pick       func(SweepProgress) int
}{
	{"sweep_campaigns_total", "Campaigns in the sweep grid.", func(sp SweepProgress) int { return sp.CampaignsTotal }},
	{"sweep_campaigns_done", "Campaigns fully merged.", func(sp SweepProgress) int { return sp.CampaignsDone }},
	{"sweep_shards_pending", depthHelp, depth(func(s shard.Progress) int { return s.Pending })},
	{"sweep_shards_leased", depthHelp, depth(func(s shard.Progress) int { return s.Leased })},
	{"sweep_shards_done", depthHelp, depth(func(s shard.Progress) int { return s.Done })},
	{"sweep_shards_quarantined", depthHelp, depth(func(s shard.Progress) int { return s.Quarantined })},
}

const depthHelp = "Shard queue depth summed over open campaigns."

// depth sums one shard count over a sweep's open campaigns.
func depth(pick func(shard.Progress) int) func(SweepProgress) int {
	return func(sp SweepProgress) int {
		n := 0
		for _, cp := range sp.Campaigns {
			if cp.Opened {
				n += pick(cp.Shards)
			}
		}
		return n
	}
}

// RegisterObs exports this sweep's live progress as scrape-time gauges on
// r, labeled sweep=<fp12>: campaigns done/total and shard counts summed
// over the open campaigns. Values are computed per scrape from the same
// state Progress reports, so the two can never drift. UnregisterObs (on
// purge) removes them.
func (p *Pool) RegisterObs(r *obs.Registry) {
	for _, g := range obsGauges {
		pick := g.pick
		r.NewGaugeFunc(g.name, g.help, func() float64 { return float64(pick(p.Progress(time.Now()))) },
			"sweep", shard.Short(p.sweepFP))
	}
	p.mu.Lock()
	p.obsReg = r
	p.mu.Unlock()
}

// UnregisterObs drops the gauges RegisterObs installed — called when the
// sweep is purged, so a long-lived coordinator's exposition does not
// accrete dead sweeps.
func (p *Pool) UnregisterObs() {
	p.mu.Lock()
	r := p.obsReg
	p.obsReg = nil
	p.mu.Unlock()
	if r == nil {
		return
	}
	for _, g := range obsGauges {
		r.Unregister(g.name, "sweep", shard.Short(p.sweepFP))
	}
}

// Open makes campaign idx leasable under the given shard plan, first
// restoring every planned shard the cache already holds a result for
// (shard.Adopt: exact range, checksum verified) — on a queue no worker can
// see yet, so none can lease a restored shard in between and re-simulate
// it. The cache may hold entries from any prior shard plan; ranges that
// match no planned shard are simply not asked for. It returns how many
// were restored; a campaign fully covered completes here without ever
// leasing. Every spec must belong to the item's campaign; opening twice
// is an error.
func (p *Pool) Open(idx int, specs []shard.Spec, held shard.PartialCache) (restored int, err error) {
	if idx < 0 || idx >= len(p.items) {
		return 0, fmt.Errorf("sweep: no campaign with index %d", idx)
	}
	if len(specs) == 0 {
		return 0, fmt.Errorf("sweep: campaign %q opened with no shards", p.items[idx].Key)
	}
	for _, sp := range specs {
		if sp.Fingerprint != p.fps[idx] {
			return 0, fmt.Errorf("sweep: shard %d carries fingerprint %.12s, campaign %q is %.12s",
				sp.Index, sp.Fingerprint, p.items[idx].Key, p.fps[idx])
		}
	}
	cfg := p.cfg
	cfg.AuditSeed += int64(idx)
	q := cfg.NewQueue(specs, p.ttl)
	for _, sp := range specs {
		if partial := shard.Adopt(held, sp); partial != nil {
			if err := q.MarkDone(partial); err != nil {
				return restored, err
			}
			restored++
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.queues[idx] != nil {
		return 0, fmt.Errorf("sweep: campaign %q opened twice", p.items[idx].Key)
	}
	p.queues[idx] = q
	p.restored[idx] = restored
	p.notifyIfDone(idx)
	return restored, nil
}

// Lease claims a shard for a worker by walking one ladder, each rung a
// reason to grant and the campaigns to try it on, in order:
//
//  1. fresh work from the campaign the worker last leased from — its
//     golden run is warm there;
//  2. fresh work from the open campaign with pending shards and the
//     fewest attached workers (ties to sweep order), so a fleet spreads
//     over the grid instead of convoying;
//  3. an audit re-execution, from any campaign — a verification tax paid
//     only when no first-issue work is pending anywhere;
//  4. a speculative backup of a straggling shard, affinity campaign
//     first — one slow worker must not serialize a whole grid behind its
//     tail shard, but speculation never starves first-issue work either.
//
// ok is false when there is truly nothing to hand out: the sweep is done
// (Done reports true), no shard has straggled, or the remaining campaigns
// have not opened yet; the worker polls again.
func (p *Pool) Lease(worker string, now time.Time) (*shard.Lease, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cancelled {
		return nil, false
	}
	var warm []int
	if idx, ok := p.affinity[worker]; ok {
		warm = []int{idx}
	}
	all := func() []int {
		out := append([]int(nil), warm...)
		for i := range p.queues {
			out = append(out, i)
		}
		return out
	}
	for _, rung := range []struct {
		why  shard.Reason
		from func() []int
	}{
		{shard.Fresh, func() []int { return warm }},
		{shard.Fresh, func() []int { return p.leastLoaded(worker, now) }},
		{shard.Audit, all},
		{shard.Speculative, all},
	} {
		for _, i := range rung.from() {
			if p.queues[i] == nil || p.completed[i] {
				continue
			}
			l, ok := p.queues[i].LeaseFor(worker, now, rung.why)
			if !ok {
				// Leasing may have quarantined the campaign's last shards in play.
				p.notifyIfDone(i)
				continue
			}
			if rung.why != shard.Audit {
				p.affinity[worker] = i
			}
			return p.granted(l, i), true
		}
	}
	return nil, false
}

// leastLoaded returns the open campaign with pending shards and the
// lightest load, if any. Load counts both active leases and workers whose
// last lease was on the campaign: a worker between leases is invisible to
// the lease count but — thanks to affinity — about to come back, and a
// fresh worker should spread to a campaign nobody is attached to.
// Callers hold p.mu.
func (p *Pool) leastLoaded(worker string, now time.Time) []int {
	attached := make(map[int]int, len(p.affinity))
	for w, idx := range p.affinity {
		if w != worker && !p.completed[idx] {
			attached[idx]++
		}
	}
	best, bestLoad := -1, 0
	for i, q := range p.queues {
		if q == nil || p.completed[i] {
			continue
		}
		pr := q.Progress(now)
		if pr.Pending == 0 {
			continue
		}
		if load := pr.Leased + attached[i]; best == -1 || load < bestLoad {
			best, bestLoad = i, load
		}
	}
	if best == -1 {
		return nil
	}
	return []int{best}
}

// granted stamps the sweep's identity onto a freshly issued lease — the
// worker threads it through execution for per-sweep cost attribution —
// and records the grant on the event stream. Callers hold p.mu.
func (p *Pool) granted(l *shard.Lease, idx int) *shard.Lease {
	l.Sweep = shard.Short(p.sweepFP)
	typ := "lease"
	if l.Speculative {
		typ = "speculate"
	}
	if l.Audit {
		typ = "audit"
	}
	p.emit(typ, p.fps[idx], l.Spec.Index, l.Worker)
	return l
}

// Complete resolves a lease with its shard's partial result, routed by
// campaign fingerprint (lease IDs of expired leases are forgotten, so
// the fingerprint — which the worker knows from the shard spec — is the
// durable routing key). Late completions are accepted per shard.Queue;
// epoch echoes the lease's fencing token (0 when epochs are not in play)
// and stale-epoch duplicates surface as shard.ErrStaleEpoch.
func (p *Pool) Complete(fingerprint, leaseID string, epoch uint64, partial *shard.Partial, now time.Time) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	idx, q, err := p.route(fingerprint, "completion")
	if err != nil {
		return err
	}
	shardIdx := -1
	if partial != nil {
		shardIdx = partial.Index
	}
	if err := q.Complete(leaseID, epoch, partial, now); err != nil {
		if errors.Is(err, shard.ErrStaleEpoch) {
			p.emit("fence", fingerprint, shardIdx, "")
		}
		return err
	}
	p.emit("complete", fingerprint, shardIdx, "")
	p.notifyIfDone(idx)
	return nil
}

// Fail resolves a lease with a worker-reported execution failure (a
// panicking shard), routed like Complete. The shard requeues — or, past
// its attempt bound, quarantines, which may finish the campaign in the
// failed state surfaced by Progress.
func (p *Pool) Fail(fingerprint, leaseID, reason string, now time.Time) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	idx, q, err := p.route(fingerprint, "failure report")
	if err != nil {
		return err
	}
	if err := q.Fail(leaseID, reason, now); err != nil {
		return err
	}
	p.emit("fail", p.fps[idx], -1, "")
	p.notifyIfDone(idx)
	return nil
}

// Quarantined returns a campaign's quarantined shard indexes with their
// failure reasons (empty when none) — what the coordinator consults
// before merging, so a poisoned campaign fails loudly instead of
// merging an incomplete tiling.
func (p *Pool) Quarantined(idx int) map[int]string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if idx < 0 || idx >= len(p.queues) || p.queues[idx] == nil {
		return nil
	}
	return p.queues[idx].QuarantinedShards()
}

// Renew extends a live lease, routed like Complete.
func (p *Pool) Renew(fingerprint, leaseID string, now time.Time) (time.Time, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, q, err := p.route(fingerprint, "renewal")
	if err != nil {
		return time.Time{}, err
	}
	return q.Renew(leaseID, now)
}

// Cancel stops all future leasing from the pool: Lease refuses every
// worker from now on, so pending shards of a cancelled sweep are never
// handed out. Completions and renewals remain accepted — a worker
// mid-shard at cancel time may finish and deliver (its result is valid
// and worth journaling), or silently let its lease expire; either way
// the journal stays a consistent prefix of the sweep. Cancel is a
// scheduling verdict, not a correctness one: campaigns already merged
// keep their results.
func (p *Pool) Cancel() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cancelled = true
}

// Cancelled reports whether Cancel has been called.
func (p *Pool) Cancelled() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cancelled
}

// Partials returns a completed campaign's shard results for merging.
func (p *Pool) Partials(idx int) []*shard.Partial {
	p.mu.Lock()
	defer p.mu.Unlock()
	if idx < 0 || idx >= len(p.queues) || p.queues[idx] == nil {
		return nil
	}
	return p.queues[idx].Partials()
}

// Completed delivers the index of each campaign whose last shard has
// landed, exactly once per campaign, in completion order. The channel
// is buffered for the whole grid, so the pool never blocks on it.
func (p *Pool) Completed() <-chan int { return p.compCh }

// Done reports whether every campaign of the sweep has completed.
func (p *Pool) Done() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.doneCount == len(p.items)
}

// WaitDone returns a channel closed once the whole sweep has completed.
func (p *Pool) WaitDone() <-chan struct{} { return p.doneCh }

// route resolves the opened campaign a worker's message (what, for the
// error) names by fingerprint. Callers hold p.mu.
func (p *Pool) route(fingerprint, what string) (int, *shard.Queue, error) {
	idx, ok := p.byFP[fingerprint]
	if !ok {
		return 0, nil, fmt.Errorf("sweep: %s names unknown campaign %.12s", what, fingerprint)
	}
	if p.queues[idx] == nil {
		return 0, nil, fmt.Errorf("sweep: campaign %q not opened yet", p.items[idx].Key)
	}
	return idx, p.queues[idx], nil
}

// notifyIfDone signals a campaign's completion exactly once and closes
// the sweep door after the last one. Callers hold p.mu.
func (p *Pool) notifyIfDone(idx int) {
	if p.completed[idx] || !p.queues[idx].Done() {
		return
	}
	p.completed[idx] = true
	p.doneCount++
	p.compCh <- idx
	if p.doneCount == len(p.items) {
		close(p.doneCh)
		p.emit("done", "", -1, "")
	}
}

// CampaignProgress is one campaign's point-in-time summary. Counts and
// the ETA cover this campaign's shards only — a sweep never mixes shard
// statistics across fingerprints, because shard size and runtime differ
// wildly between, say, SoC1 and SoC10.
type CampaignProgress struct {
	Key         string  `json:"key"`
	Fingerprint string  `json:"fingerprint"`
	SoC         int     `json:"soc"`
	Engine      string  `json:"engine"`
	LET         float64 `json:"let"`
	Opened      bool    `json:"opened"`
	Done        bool    `json:"done"`
	// Restored counts shards answered at Open from prior results — the
	// coordinator's journal or the artifact lake — instead of simulation.
	Restored int            `json:"restored,omitempty"`
	Shards   shard.Progress `json:"shards"`
	// ETANS estimates this campaign's remaining wall-clock: observed mean
	// shard runtime x remaining shards, divided by the workers currently
	// leasing from it. Zero until a first shard completes under a live
	// lease.
	ETANS int64 `json:"eta_ns,omitempty"`
}

// SweepProgress is the sweep-level summary: per-campaign blocks plus
// grid-level campaign counts (never shard counts, which are not
// comparable across campaigns).
type SweepProgress struct {
	Name           string             `json:"name"`
	Fingerprint    string             `json:"fingerprint"`
	CampaignsTotal int                `json:"campaigns_total"`
	CampaignsDone  int                `json:"campaigns_done"`
	Done           bool               `json:"done"`
	Campaigns      []CampaignProgress `json:"campaigns"`
}

// Progress summarizes the pool after expiring stale leases.
func (p *Pool) Progress(now time.Time) SweepProgress {
	p.mu.Lock()
	defer p.mu.Unlock()
	sp := SweepProgress{
		Name:           p.name,
		Fingerprint:    p.sweepFP,
		CampaignsTotal: len(p.items),
		CampaignsDone:  p.doneCount,
		Done:           p.doneCount == len(p.items),
	}
	for i, it := range p.items {
		cp := CampaignProgress{
			Key:         it.Key,
			Fingerprint: p.fps[i],
			SoC:         it.Campaign.SoC,
			Engine:      string(it.Campaign.Engine),
			LET:         it.Campaign.LET,
			Opened:      p.queues[i] != nil,
			Done:        p.completed[i],
			Restored:    p.restored[i],
		}
		if q := p.queues[i]; q != nil {
			cp.Shards = q.Progress(now)
			if remaining := cp.Shards.Pending + cp.Shards.Leased; remaining > 0 && cp.Shards.AvgShardNS > 0 {
				div := cp.Shards.Leased
				if div < 1 {
					div = 1
				}
				cp.ETANS = cp.Shards.AvgShardNS * int64(remaining) / int64(div)
			}
		}
		sp.Campaigns = append(sp.Campaigns, cp)
	}
	return sp
}
