package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// ErrStaleEpoch marks a completion that was fenced: its lease was granted
// by an earlier coordinator incarnation and the shard has since completed
// under the current one. The result itself is valid (execution is
// deterministic) — the fence only refuses a second merge, so a deposed
// coordinator's zombie workers can never double-count a shard. Callers
// match with errors.Is.
var ErrStaleEpoch = errors.New("completion bears a stale coordinator epoch")

// DefaultMaxAttempts bounds how many distinct executions a shard may be
// granted before the queue quarantines it instead of re-issuing forever:
// a shard that crashes every worker it touches (poison work) must not
// hang its sweep. 0 disables the bound.
const DefaultMaxAttempts = 5

// maxAuditVotes bounds one shard's audit at this many total executions
// (the original plus re-runs). An audit that cannot reach a two-vote
// majority within the bound is abandoned keeping the original result —
// sampling tighter next time beats wedging the sweep.
const maxAuditVotes = 5

// Queue is the coordinator's shard state machine. Every shard is pending,
// leased or done; leases expire, returning their shard to pending, which
// is how work leased to a dead worker gets re-issued. The queue is pure
// bookkeeping — it never executes anything and takes the current time as
// an argument, so its behaviour is fully deterministic under test.
type Queue struct {
	mu        sync.Mutex
	specs     []Spec
	state     []shardState
	partials  []*Partial
	leases    map[string]*Lease
	byShard   []string       // shard index -> primary lease ID, "" if none
	backups   map[int]string // shard index -> speculative backup lease ID
	ttl       time.Duration
	cfg       QueueConfig
	nextLease uint64
	remaining int
	doneCh    chan struct{}
	// durSum/durN accumulate observed lease-grant-to-completion times of
	// shards finished under a live lease — the ETA estimator's input.
	durSum time.Duration
	durN   int
	// fenced counts completions refused under ErrStaleEpoch; speculated
	// counts backup leases issued.
	fenced     int
	speculated int
	// attempts counts distinct executions granted per shard — every
	// primary and every speculative lease. When cfg.MaxAttempts > 0, a
	// shard whose attempts reach the bound is quarantined instead of
	// re-issued (poison-work containment); the transition fires only on
	// the primary requeue/lease path, never from a speculative grant.
	attempts []int
	// quarantined maps quarantined shard indexes to the last failure
	// reason; integrityRejects counts completions refused by Verify.
	quarantined      map[int]string
	integrityRejects int
	doneClosed       bool
	// Audit re-execution state: a sampled fraction (cfg.AuditFrac) of
	// completions opens an audit — the shard is re-issued to other
	// workers and verdict sums are compared. auditsOpen gates Done, so a
	// wrong original can still be replaced before merge.
	auditRng         *rand.Rand
	audits           map[int]*audit
	auditsOpen       int
	auditsDone       int
	auditDivergences int
}

// QueueConfig is everything a coordinator decides about its queues, once,
// before the first lease: built from the flags, handed down by value, and
// immutable from then on — a queue is born configured. The zero value is
// a bare queue: no fencing, unbounded re-issue, no speculation, no
// audits, no instrumentation.
type QueueConfig struct {
	// Epoch is the coordinator incarnation stamped on every lease — the
	// fencing token. A standby takes over with a higher one, and
	// completions echoing a lower epoch against an already-done shard are
	// fenced with ErrStaleEpoch.
	Epoch uint64
	// MaxAttempts bounds distinct executions per shard; a shard reaching
	// the bound without completing is quarantined instead of re-issued.
	// 0 leaves re-issue unbounded.
	MaxAttempts int
	// Speculate is the straggler threshold: a leased shard is eligible for
	// a speculative backup once its age exceeds this multiple of the
	// observed mean shard duration. <= 0 disables speculation.
	Speculate float64
	// AuditFrac samples this fraction of completions for audit
	// re-execution on an independent worker; AuditSeed seeds the sampling
	// generator, so the decision sequence is deterministic for a given
	// completion order.
	AuditFrac float64
	AuditSeed int64
	// OnStrike fires once per outvoted audit vote with the losing worker's
	// name — the coordinator's worker-health input. OnReplace fires when
	// the merged original lost its audit, with the campaign fingerprint
	// and the majority partial that replaced it, so the coordinator can
	// re-journal the corrected result. Both run outside the queue's lock.
	OnStrike  func(worker string)
	OnReplace func(fingerprint string, p *Partial)
	// Metrics mirrors lifecycle transitions into the obs registry; nil
	// leaves the queue uninstrumented. Counters are fleet totals, shared
	// by every queue built from this config.
	Metrics *Metrics
}

// audit is the open cross-check of one completed shard: the original
// completion is vote zero, re-executions on other workers append votes,
// and the first verdict sum held by two votes wins.
type audit struct {
	votes    []auditVote
	lease    string // open audit lease ID, "" when none outstanding
	lastVote time.Time
	diverged bool
}

type auditVote struct {
	worker string
	sum    string
	p      *Partial
}

// voted reports whether the worker already holds a vote on this audit.
func (a *audit) voted(worker string) bool {
	for _, v := range a.votes {
		if v.worker == worker {
			return true
		}
	}
	return false
}

// noMetrics is the all-no-op sink substituted when no Metrics is set.
var noMetrics = &Metrics{}

func (q *Queue) met() *Metrics {
	if q.cfg.Metrics != nil {
		return q.cfg.Metrics
	}
	return noMetrics
}

type shardState uint8

const (
	statePending shardState = iota
	stateLeased
	stateDone
	// stateQuarantined is terminal-failed: the shard exhausted its attempt
	// bound (poison work) and is withheld from leasing so the sweep can
	// fail cleanly instead of hanging on infinite re-issue.
	stateQuarantined
)

// Lease is one worker's claim on one shard. TTL is the coordinator's
// lease duration; a worker that expects its shard to outrun it keeps the
// lease alive by calling Renew at some fraction of the TTL (campaignd
// heartbeats at TTL/3), so a live shard is never redundantly re-issued
// to idle workers.
type Lease struct {
	ID        string        `json:"id"`
	Worker    string        `json:"worker"`
	Spec      Spec          `json:"spec"`
	ExpiresAt time.Time     `json:"expires_at"`
	TTL       time.Duration `json:"ttl_ns"`
	// Epoch is the coordinator incarnation that granted the lease — a
	// fencing token. A worker echoes it on Complete; after a failover the
	// new coordinator's queues carry a higher epoch and fence any
	// already-done shard completed under an older one (ErrStaleEpoch).
	Epoch uint64 `json:"epoch,omitempty"`
	// Speculative marks a straggler backup lease (granted for the
	// Speculative reason), so coordinators can trace and count re-issues
	// distinctly from first-issue leases.
	Speculative bool `json:"speculative,omitempty"`
	// Audit marks a re-execution of an already-completed shard (granted
	// for the Audit reason) to cross-check the original result. The
	// completion is recorded as an audit vote, never merged directly.
	Audit bool `json:"audit,omitempty"`
	// Sweep is the fp12 of the sweep the shard belongs to, stamped by
	// sweep.Pool when it grants the lease. Workers thread it through
	// Executor.ExecuteFor so the shard's simulation spend is attributed
	// to its sweep (sweep_cost_* series). Empty outside a sweep pool;
	// purely accounting, never a routing or correctness input.
	Sweep string `json:"sweep,omitempty"`

	granted time.Time // lease grant time, for shard-duration observation
}

// Progress is a point-in-time summary of the queue. AvgShardNS is the
// mean observed lease-to-completion time of the shards finished so far
// (0 until the first completion under a live lease) — the input for ETA
// estimates, kept per-queue so sweeps never mix shard runtimes of
// different campaigns.
type Progress struct {
	Total      int   `json:"total"`
	Done       int   `json:"done"`
	Leased     int   `json:"leased"`
	Pending    int   `json:"pending"`
	AvgShardNS int64 `json:"avg_shard_ns,omitempty"`
	// Fenced counts completions refused with ErrStaleEpoch; Speculated
	// counts straggler backup leases issued. Both are cumulative.
	Fenced     int `json:"fenced,omitempty"`
	Speculated int `json:"speculated,omitempty"`
	// Quarantined counts shards withdrawn after exhausting their attempt
	// bound; IntegrityRejects counts completions refused on checksum
	// mismatch. AuditsOpen/Audited/AuditDivergences summarize the audit
	// re-execution machinery.
	Quarantined      int `json:"quarantined,omitempty"`
	IntegrityRejects int `json:"integrity_rejects,omitempty"`
	AuditsOpen       int `json:"audits_open,omitempty"`
	Audited          int `json:"audited,omitempty"`
	AuditDivergences int `json:"audit_divergences,omitempty"`
}

// NewQueue builds a bare (zero-config) queue over a planned shard set.
// ttl is how long a lease lives without being completed before its shard
// is re-issued.
func NewQueue(specs []Spec, ttl time.Duration) *Queue {
	return QueueConfig{}.NewQueue(specs, ttl)
}

// NewQueue builds a queue configured by c.
func (c QueueConfig) NewQueue(specs []Spec, ttl time.Duration) *Queue {
	q := &Queue{
		cfg:         c,
		specs:       specs,
		state:       make([]shardState, len(specs)),
		partials:    make([]*Partial, len(specs)),
		leases:      map[string]*Lease{},
		byShard:     make([]string, len(specs)),
		backups:     map[int]string{},
		attempts:    make([]int, len(specs)),
		quarantined: map[int]string{},
		audits:      map[int]*audit{},
		ttl:         ttl,
		remaining:   len(specs),
		doneCh:      make(chan struct{}),
	}
	if c.AuditFrac > 0 {
		q.auditRng = rand.New(rand.NewSource(c.AuditSeed))
	}
	if q.remaining == 0 {
		q.doneClosed = true
		close(q.doneCh)
	}
	return q
}

// MarkDone records a shard completed outside the lease cycle — a journal
// entry loaded at startup. The partial must cover its shard exactly;
// mismatched entries (e.g. a journal written under a different shard
// count) are rejected so the shard runs again instead of merging garbage.
func (q *Queue) MarkDone(p *Partial) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if p == nil || p.Index < 0 || p.Index >= len(q.specs) {
		return fmt.Errorf("shard: no shard with index %v", p)
	}
	if !p.Covers(q.specs[p.Index]) {
		sp := q.specs[p.Index]
		return fmt.Errorf("shard: journaled shard %d covers [%d,%d) with %d injections, plan wants [%d,%d)",
			p.Index, p.Start, p.End, len(p.Injections), sp.Start, sp.End)
	}
	q.complete(p.Index, p)
	return nil
}

// Reason says why a lease is granted. A coordinator walks the reasons as
// a ladder — Fresh work first, then the verification tax, then straggler
// insurance — so neither audits nor speculation can starve first-issue
// work. On the wire the reason travels as Lease.Audit / Lease.Speculative.
type Reason uint8

const (
	// Fresh claims the lowest-indexed pending shard.
	Fresh Reason = iota
	// Audit re-issues an already-completed, audit-sampled shard so an
	// independent execution can vote on its verdict sum.
	Audit
	// Speculative re-issues a still-leased straggler to a second worker —
	// a MapReduce-style backup task.
	Speculative
)

// Lease claims the lowest-indexed pending shard for a worker, first
// expiring any stale leases. ok is false when nothing is pending — which
// either means the campaign is done (Done reports true) or that every
// remaining shard is leased out and the worker should poll again.
func (q *Queue) Lease(worker string, now time.Time) (*Lease, bool) {
	return q.LeaseFor(worker, now, Fresh)
}

// LeaseFor is the queue's one grant path: it expires stale leases, picks
// the shard the reason calls for, and issues the lease. ok is false when
// the reason has nothing to offer this worker right now.
func (q *Queue) LeaseFor(worker string, now time.Time, why Reason) (*Lease, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.expire(now)
	idx := -1
	switch why {
	case Fresh:
		idx = q.pickPending()
	case Audit:
		idx = q.pickAudit(worker, now)
	case Speculative:
		idx = q.pickStraggler(worker, now)
	}
	if idx == -1 {
		return nil, false
	}
	return q.grant(worker, idx, why, now), true
}

// grant issues a lease on shard idx and files it where its reason says:
// a fresh lease is the shard's primary, a speculative one its backup, an
// audit one the open audit's. Callers hold q.mu.
func (q *Queue) grant(worker string, idx int, why Reason, now time.Time) *Lease {
	q.nextLease++
	tag := "shard"
	if why == Audit {
		tag = "audit"
	}
	l := &Lease{
		ID:          fmt.Sprintf("lease-%d-%s-%d", q.nextLease, tag, idx),
		Worker:      worker,
		Spec:        q.specs[idx],
		ExpiresAt:   now.Add(q.ttl),
		TTL:         q.ttl,
		Epoch:       q.cfg.Epoch,
		Speculative: why == Speculative,
		Audit:       why == Audit,
		granted:     now,
	}
	q.leases[l.ID] = l
	q.met().Leases.Inc()
	switch why {
	case Fresh:
		q.attempts[idx]++
		q.state[idx] = stateLeased
		q.byShard[idx] = l.ID
	case Speculative:
		// A backup is a distinct execution, so it counts toward the attempt
		// bound — but quarantine itself never fires here: only the primary
		// requeue/lease path withdraws a shard, so speculation alone can
		// never quarantine work.
		q.attempts[idx]++
		q.backups[idx] = l.ID
		q.speculated++
		q.met().Speculated.Inc()
	case Audit:
		q.audits[idx].lease = l.ID
	}
	return l
}

// pickPending returns the lowest-indexed pending shard still under its
// attempt bound, quarantining exhausted ones on the way; -1 when none.
// Callers hold q.mu.
func (q *Queue) pickPending() int {
	for i, st := range q.state {
		if st != statePending {
			continue
		}
		if q.cfg.MaxAttempts > 0 && q.attempts[i] >= q.cfg.MaxAttempts {
			q.quarantine(i, fmt.Sprintf("attempt bound reached (%d executions)", q.attempts[i]))
			continue
		}
		return i
	}
	return -1
}

// pickStraggler returns the longest-running leased shard worth backing
// up, -1 when none. It only fires for a shard whose primary lease has run
// at least cfg.Speculate x the observed mean shard duration (so nothing
// speculates until a baseline exists), never hands a worker a backup of
// its own shard, and allows at most one backup per shard. Deterministic
// execution makes the race safe: whichever copy completes first wins,
// the other is refused as a duplicate. Callers hold q.mu.
func (q *Queue) pickStraggler(worker string, now time.Time) int {
	if q.cfg.Speculate <= 0 || q.durN == 0 {
		return -1
	}
	threshold := time.Duration(float64(q.durSum/time.Duration(q.durN)) * q.cfg.Speculate)
	best, bestAge := -1, time.Duration(0)
	for i, st := range q.state {
		if st != stateLeased {
			continue
		}
		if _, ok := q.backups[i]; ok {
			continue
		}
		pl := q.leases[q.byShard[i]]
		if pl == nil || pl.Worker == worker {
			continue
		}
		if age := now.Sub(pl.granted); age >= threshold && age > bestAge {
			best, bestAge = i, age
		}
	}
	return best
}

// Complete resolves a lease with its shard's partial result. A result
// arriving after its lease expired is still accepted as long as the
// shard has not completed elsewhere: execution is deterministic, so a
// slow worker's partial is bit-identical to whatever a re-execution
// would produce, and rejecting it would livelock any campaign whose
// per-shard runtime exceeds the lease TTL. Only a duplicate of an
// already-done shard is refused (the caller just drops its copy);
// duplicates delivered under an epoch older than the queue's are fenced
// with ErrStaleEpoch so zombies of a deposed coordinator are visible as
// such. epoch echoes Lease.Epoch; pass 0 when epochs are not in play.
func (q *Queue) Complete(leaseID string, epoch uint64, p *Partial, now time.Time) error {
	// Audit hooks fire after q.mu is released (defers run LIFO), so a
	// strike/replace callback can safely call back into coordinator state.
	var fired []func()
	defer func() {
		for _, f := range fired {
			f()
		}
	}()
	q.mu.Lock()
	defer q.mu.Unlock()
	q.expire(now)
	if p == nil || p.Index < 0 || p.Index >= len(q.specs) {
		return fmt.Errorf("shard: completion names no known shard")
	}
	sp := q.specs[p.Index]
	if !p.Covers(sp) {
		return fmt.Errorf("shard: result for shard %d covers [%d,%d) with %d injections, plan wants [%d,%d)",
			p.Index, p.Start, p.End, len(p.Injections), sp.Start, sp.End)
	}
	l := q.leases[leaseID]
	if l != nil && l.Spec.Index != p.Index {
		return fmt.Errorf("shard: lease %q is for shard %d, result is for shard %d", leaseID, l.Spec.Index, p.Index)
	}
	if err := p.Verify(); err != nil {
		// The bytes were damaged somewhere after the executor stamped
		// them. Refuse the merge and put the shard back in play: an audit
		// lease is simply re-issuable, a primary lease requeues its shard.
		// Corruption degrades to re-simulation, never to wrong output.
		q.integrityRejects++
		q.met().IntegrityRejects.Inc()
		if l != nil {
			q.dropLease(leaseID, l, now)
		}
		return err
	}
	if l != nil && l.Audit {
		delete(q.leases, leaseID)
		aud := q.audits[p.Index]
		if aud == nil {
			return nil // audit settled while this re-run was in flight
		}
		if aud.lease == leaseID {
			aud.lease = ""
		}
		sum, err := p.VerdictSum()
		if err != nil {
			return err
		}
		aud.votes = append(aud.votes, auditVote{worker: l.Worker, sum: sum, p: p})
		aud.lastVote = now
		fired = q.settleAudit(p.Index, aud)
		return nil
	}
	if q.state[p.Index] == stateDone {
		if epoch < q.cfg.Epoch {
			q.fenced++
			q.met().Fenced.Inc()
			return fmt.Errorf("shard: shard %d already completed: %w (epoch %d < %d)", p.Index, ErrStaleEpoch, epoch, q.cfg.Epoch)
		}
		return fmt.Errorf("shard: shard %d already completed elsewhere", p.Index)
	}
	if q.state[p.Index] == stateQuarantined {
		return fmt.Errorf("shard: shard %d is quarantined", p.Index)
	}
	if l != nil {
		q.durSum += now.Sub(l.granted)
		q.durN++
		q.met().observeDur(now.Sub(l.granted))
	}
	q.maybeOpenAudit(l, p, now)
	q.complete(p.Index, p)
	return nil
}

// dropLease removes a lease that ended without a result — expired,
// failed, or its completion refused — and returns its shard to play: a
// backup or audit lease just vanishes, a primary lease requeues the
// shard, or hands it to a still-live backup so the shard stays leased
// and is never triple-issued. Callers hold q.mu.
func (q *Queue) dropLease(leaseID string, l *Lease, now time.Time) {
	idx := l.Spec.Index
	delete(q.leases, leaseID)
	if l.Audit {
		if aud := q.audits[idx]; aud != nil && aud.lease == leaseID {
			aud.lease = ""
		}
		return
	}
	if q.backups[idx] == leaseID {
		delete(q.backups, idx)
		return
	}
	if q.byShard[idx] != leaseID {
		return
	}
	q.byShard[idx] = ""
	if bid, ok := q.backups[idx]; ok {
		if bl := q.leases[bid]; bl != nil && bl.ExpiresAt.After(now) {
			q.byShard[idx] = bid
			delete(q.backups, idx)
			return
		}
	}
	if q.state[idx] == stateLeased {
		q.state[idx] = statePending
	}
}

// maybeOpenAudit samples an accepted completion for audit re-execution.
// Only completions under a live lease are auditable — a late completion
// has no attributable worker to vote for. Callers hold q.mu.
func (q *Queue) maybeOpenAudit(l *Lease, p *Partial, now time.Time) {
	if l == nil || l.Worker == "" || q.cfg.AuditFrac <= 0 {
		return
	}
	if q.audits[p.Index] != nil {
		return
	}
	if q.auditRng.Float64() >= q.cfg.AuditFrac {
		return
	}
	sum, err := p.VerdictSum()
	if err != nil {
		return
	}
	q.audits[p.Index] = &audit{
		votes:    []auditVote{{worker: l.Worker, sum: sum, p: p}},
		lastVote: now,
	}
	q.auditsOpen++
	q.met().Audits.Inc()
}

// pickAudit returns the lowest-indexed open audit this worker may vote
// on, -1 when none. A worker that has already voted on an audit is
// excluded from it while other workers could still claim it: a repeat
// vote re-simulates on the same machine, so it checks nothing about that
// machine — and letting the original worker back in would let a faulty
// worker second its own wrong verdict into a majority. Repeat voters are
// only allowed after a full lease TTL of nobody else claiming the audit,
// so a lone surviving worker can still settle. Callers hold q.mu.
func (q *Queue) pickAudit(worker string, now time.Time) int {
	idxs := make([]int, 0, len(q.audits))
	for idx := range q.audits {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	for _, idx := range idxs {
		aud := q.audits[idx]
		if aud.lease != "" || len(aud.votes) >= maxAuditVotes {
			continue
		}
		if aud.voted(worker) && now.Sub(aud.lastVote) < q.ttl {
			continue
		}
		return idx
	}
	return -1
}

// settleAudit decides an audit after a new vote: the first verdict sum
// reaching two votes wins, every vote for another sum strikes its
// worker, and if the merged original lost, the majority partial replaces
// it before the sweep can merge. An audit that exhausts maxAuditVotes
// without a majority is abandoned keeping the original. Returns the
// strike/replace callbacks to fire once q.mu is released; callers hold
// q.mu.
func (q *Queue) settleAudit(idx int, aud *audit) []func() {
	counts := map[string]int{}
	for _, v := range aud.votes {
		counts[v.sum]++
	}
	if len(counts) > 1 && !aud.diverged {
		aud.diverged = true
		q.auditDivergences++
		q.met().AuditDivergences.Inc()
	}
	winner := ""
	for sum, n := range counts {
		if n >= 2 {
			winner = sum
			break
		}
	}
	if winner == "" {
		if len(aud.votes) >= maxAuditVotes {
			delete(q.audits, idx)
			q.auditsOpen--
			q.auditsDone++
			q.maybeFinish()
		}
		return nil
	}
	var fired []func()
	for _, v := range aud.votes {
		if v.sum != winner && q.cfg.OnStrike != nil {
			w := v.worker
			fired = append(fired, func() { q.cfg.OnStrike(w) })
		}
	}
	if aud.votes[0].sum != winner {
		for _, v := range aud.votes {
			if v.sum == winner {
				q.partials[idx] = v.p
				if q.cfg.OnReplace != nil {
					wp := v.p
					fired = append(fired, func() { q.cfg.OnReplace(q.specs[idx].Fingerprint, wp) })
				}
				break
			}
		}
	}
	delete(q.audits, idx)
	q.auditsOpen--
	q.auditsDone++
	q.maybeFinish()
	return fired
}

// Fail resolves a lease with an execution failure report — a worker
// whose shard panicked posts this instead of letting the lease silently
// expire. The shard requeues immediately; one that has exhausted its
// attempt bound is quarantined on the spot with the reported reason.
func (q *Queue) Fail(leaseID, reason string, now time.Time) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.expire(now)
	l, ok := q.leases[leaseID]
	if !ok {
		return fmt.Errorf("shard: lease %q unknown or expired", leaseID)
	}
	q.dropLease(leaseID, l, now)
	idx := l.Spec.Index
	q.met().Failures.Inc()
	if !l.Audit && q.state[idx] == statePending && q.cfg.MaxAttempts > 0 && q.attempts[idx] >= q.cfg.MaxAttempts {
		q.quarantine(idx, reason)
	}
	return nil
}

// quarantine withdraws a poison shard from leasing. The sweep's
// remaining count drops so completion (and its failure surfacing) isn't
// held hostage by work that can never finish. Callers hold q.mu.
func (q *Queue) quarantine(idx int, reason string) {
	if q.state[idx] == stateDone || q.state[idx] == stateQuarantined {
		return
	}
	q.state[idx] = stateQuarantined
	q.quarantined[idx] = reason
	q.remaining--
	q.met().Quarantines.Inc()
	q.maybeFinish()
}

// Renew extends a live lease's deadline by a full TTL — the heartbeat a
// worker sends while a long shard is still executing, so the shard is
// not redundantly re-issued to idle workers when its runtime exceeds
// the configured lease duration. Renewing an unknown or already-expired
// lease fails; the worker just stops heartbeating and relies on the
// late-completion acceptance in Complete.
func (q *Queue) Renew(leaseID string, now time.Time) (time.Time, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.expire(now)
	l, ok := q.leases[leaseID]
	if !ok {
		return time.Time{}, fmt.Errorf("shard: lease %q unknown or expired", leaseID)
	}
	l.ExpiresAt = now.Add(q.ttl)
	q.met().Renewals.Inc()
	return l.ExpiresAt, nil
}

// complete transitions a shard to done. Callers hold q.mu.
func (q *Queue) complete(idx int, p *Partial) {
	if q.state[idx] == stateDone || q.state[idx] == stateQuarantined {
		return
	}
	if id := q.byShard[idx]; id != "" {
		delete(q.leases, id)
		q.byShard[idx] = ""
	}
	if id, ok := q.backups[idx]; ok {
		delete(q.leases, id)
		delete(q.backups, idx)
	}
	q.state[idx] = stateDone
	q.partials[idx] = p
	q.remaining--
	q.maybeFinish()
}

// maybeFinish closes the done channel once nothing remains in play:
// every shard done or quarantined AND every open audit settled — an
// audit can still overturn a merged original, so completion must wait
// for it. Callers hold q.mu.
func (q *Queue) maybeFinish() {
	if q.remaining == 0 && q.auditsOpen == 0 && !q.doneClosed {
		q.doneClosed = true
		close(q.doneCh)
	}
}

// expire drops every lease whose deadline has passed, returning its
// shard to play exactly as a refused lease would (see dropLease).
// Callers hold q.mu.
func (q *Queue) expire(now time.Time) {
	for id, l := range q.leases {
		if !l.ExpiresAt.After(now) {
			q.met().Expiries.Inc()
			q.dropLease(id, l, now)
		}
	}
}

// Done reports whether every shard has resolved (completed or
// quarantined) and every open audit has settled.
func (q *Queue) Done() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.remaining == 0 && q.auditsOpen == 0
}

// QuarantinedShards returns the quarantined shard indexes with their
// last failure reasons — what the coordinator surfaces when it fails a
// sweep instead of merging an incomplete tiling.
func (q *Queue) QuarantinedShards() map[int]string {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make(map[int]string, len(q.quarantined))
	for idx, reason := range q.quarantined {
		out[idx] = reason
	}
	return out
}

// WaitDone returns a channel closed once every shard has completed.
func (q *Queue) WaitDone() <-chan struct{} { return q.doneCh }

// Partials returns the completed shard results indexed by shard; only
// meaningful once Done reports true.
func (q *Queue) Partials() []*Partial {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]*Partial, len(q.partials))
	copy(out, q.partials)
	return out
}

// Progress summarizes the queue after expiring stale leases.
func (q *Queue) Progress(now time.Time) Progress {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.expire(now)
	var p Progress
	p.Total = len(q.specs)
	for _, st := range q.state {
		switch st {
		case stateDone:
			p.Done++
		case stateLeased:
			p.Leased++
		case stateQuarantined:
			p.Quarantined++
		default:
			p.Pending++
		}
	}
	if q.durN > 0 {
		p.AvgShardNS = int64(q.durSum) / int64(q.durN)
	}
	p.Fenced = q.fenced
	p.Speculated = q.speculated
	p.IntegrityRejects = q.integrityRejects
	p.AuditsOpen = q.auditsOpen
	p.Audited = q.auditsDone
	p.AuditDivergences = q.auditDivergences
	return p
}
