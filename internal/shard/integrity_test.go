package shard

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// stamped fabricates a checksummed partial — what an executor hands the
// wire.
func stamped(t *testing.T, sp Spec) *Partial {
	t.Helper()
	p := fakePartial(sp)
	if err := p.Stamp(); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPartialChecksumStampVerify pins the integrity stamp's contract:
// verification passes on untouched bytes, fails typed on any payload
// mutation, ignores the plan-local Index, and stays vacuous for
// pre-checksum records.
func TestPartialChecksumStampVerify(t *testing.T) {
	specs := queueSpecs(t)
	p := stamped(t, specs[1])
	if err := p.Verify(); err != nil {
		t.Fatalf("freshly stamped partial fails verification: %v", err)
	}
	// Index is routing, not payload: a lake partial adopted under a
	// different shard plan keeps verifying.
	p.Index = 3
	if err := p.Verify(); err != nil {
		t.Fatalf("re-indexed partial fails verification: %v", err)
	}
	// Any payload mutation — here a work counter, the kind of field a
	// flipped bit on the wire lands in — is a typed refusal.
	p.InjectEvals++
	err := p.Verify()
	if !errors.Is(err, ErrIntegrity) {
		t.Fatalf("mutated partial verified: %v", err)
	}
	var ie *IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("mismatch is not an *IntegrityError: %v", err)
	}
	if ie.Start != p.Start || ie.End != p.End || ie.Want == ie.Got {
		t.Fatalf("IntegrityError carries wrong context: %+v", ie)
	}
	// A verdict mutation is caught too, not just counters.
	p2 := stamped(t, specs[1])
	p2.Injections[0].TimePS++
	if err := p2.Verify(); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("mutated injection verified: %v", err)
	}
	// Pre-checksum records verify vacuously: history stays loadable.
	legacy := fakePartial(specs[1])
	if err := legacy.Verify(); err != nil {
		t.Fatalf("unstamped legacy partial rejected: %v", err)
	}
	if err := (*Partial)(nil).Verify(); err != nil {
		t.Fatalf("nil partial rejected: %v", err)
	}
}

// TestVerdictSumStableAcrossWorkCounters pins what audit re-execution
// compares: two executions that agree on the verdicts share a VerdictSum
// even when their work counters (wall time, warm starts) differ, while
// any verdict difference splits it.
func TestVerdictSumStableAcrossWorkCounters(t *testing.T) {
	specs := queueSpecs(t)
	a := fakePartial(specs[0])
	b := fakePartial(specs[0])
	b.InjectWall = 12345
	b.WarmStarts = 99
	sa, err := a.VerdictSum()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.VerdictSum()
	if err != nil {
		t.Fatal(err)
	}
	if sa != sb {
		t.Fatal("work counters leaked into the verdict sum")
	}
	b.Injections[0].TimePS++
	if sb, _ = b.VerdictSum(); sa == sb {
		t.Fatal("different verdicts share a verdict sum")
	}
}

// TestExecPanicRecoveredAsTypedError pins the poison-work containment
// seam: a panic inside the simulator surfaces as *ExecPanicError from
// ExecuteOn instead of killing the worker process.
func TestExecPanicRecoveredAsTypedError(t *testing.T) {
	cs := testSpec("EventSim", 0.05)
	b := mustBuild(t, cs)
	b.Run.Campaign = nil // first dereference inside RunJobs panics
	_, err := ExecuteOn(b, Spec{Index: 0, Start: 0, End: 1})
	if err == nil {
		t.Fatal("panicking execution returned no error")
	}
	var pe *ExecPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("panic surfaced as %T (%v), want *ExecPanicError", err, err)
	}
	if !strings.Contains(err.Error(), "execution panicked") {
		t.Fatalf("panic error lacks context: %v", err)
	}
}

// TestQueueIntegrityRejectRequeues pins the wire-corruption reaction: a
// completion whose bytes fail their checksum is refused with ErrIntegrity
// and the shard goes back in play, so corruption degrades to
// re-simulation instead of merging garbage.
func TestQueueIntegrityRejectRequeues(t *testing.T) {
	specs := queueSpecs(t)
	q := NewQueue(specs[:1], time.Minute)
	now := time.Unix(1000, 0)
	l, ok := q.Lease("w1", now)
	if !ok {
		t.Fatal("lease refused")
	}
	bad := stamped(t, l.Spec)
	bad.InjectEvals += 7 // the wire flipped a digit after stamping
	if err := q.Complete(l.ID, 0, bad, now); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("corrupted completion not refused with ErrIntegrity: %v", err)
	}
	if q.Done() {
		t.Fatal("queue done after refusing the only shard's result")
	}
	if pr := q.Progress(now); pr.IntegrityRejects != 1 || pr.Pending != 1 {
		t.Fatalf("progress %+v, want 1 integrity reject and the shard pending", pr)
	}
	// The shard re-issues immediately — no waiting out the dropped lease.
	l2, ok := q.Lease("w2", now)
	if !ok {
		t.Fatal("rejected shard not re-issued")
	}
	if err := q.Complete(l2.ID, 0, stamped(t, l2.Spec), now); err != nil {
		t.Fatal(err)
	}
	if !q.Done() {
		t.Fatal("queue not done after the clean retry")
	}
}

// TestQueueQuarantineAfterAttemptBound pins poison-work containment: a
// shard whose executions keep failing is withdrawn at the attempt bound
// with its last failure reason, and the queue still reaches Done so the
// sweep fails cleanly instead of hanging.
func TestQueueQuarantineAfterAttemptBound(t *testing.T) {
	specs := queueSpecs(t)
	q := QueueConfig{MaxAttempts: 2}.NewQueue(specs[:2], time.Minute)
	now := time.Unix(1000, 0)

	// The healthy shard completes normally.
	healthy, _ := q.Lease("w1", now)
	if err := q.Complete(healthy.ID, 0, fakePartial(healthy.Spec), now); err != nil {
		t.Fatal(err)
	}
	// The poison shard crashes both its executions.
	p1, _ := q.Lease("w1", now)
	if err := q.Fail(p1.ID, "simulator panic: index out of range", now); err != nil {
		t.Fatal(err)
	}
	if pr := q.Progress(now); pr.Quarantined != 0 {
		t.Fatalf("quarantined after first failure: %+v", pr)
	}
	p2, ok := q.Lease("w2", now)
	if !ok {
		t.Fatal("failed shard not re-issued below the bound")
	}
	if err := q.Fail(p2.ID, "simulator panic: index out of range", now); err != nil {
		t.Fatal(err)
	}
	// The bound is reached: the shard is quarantined, not re-issued.
	if _, ok := q.Lease("w3", now); ok {
		t.Fatal("quarantined shard re-issued")
	}
	quar := q.QuarantinedShards()
	if len(quar) != 1 {
		t.Fatalf("quarantined set %v, want exactly the poison shard", quar)
	}
	reason, ok := quar[p1.Spec.Index]
	if !ok || !strings.Contains(reason, "simulator panic") {
		t.Fatalf("quarantine reason %q lost the failure report", reason)
	}
	// Done fires so the sweep can surface the failure instead of hanging.
	if !q.Done() {
		t.Fatal("queue never finished with a quarantined shard")
	}
	pr := q.Progress(now)
	if pr.Quarantined != 1 || pr.Done != 1 {
		t.Fatalf("progress %+v, want 1 done / 1 quarantined", pr)
	}
	// A straggler completion of the quarantined shard is refused.
	if err := q.Complete(p2.ID, 0, fakePartial(p2.Spec), now); err == nil {
		t.Fatal("completion of a quarantined shard accepted")
	}
}

// TestQueueSpeculationCountsAttemptsOncePerExecution pins the
// quarantine x speculation interaction: a speculative backup is one more
// distinct execution — one attempt, not two — and reaching the bound via
// a speculative grant never quarantines by itself; only the primary
// requeue/lease path withdraws a shard.
func TestQueueSpeculationCountsAttemptsOncePerExecution(t *testing.T) {
	specs := queueSpecs(t)
	q := QueueConfig{MaxAttempts: 3, Speculate: 3}.NewQueue(specs[:2], time.Hour)
	now := time.Unix(1000, 0)

	slow, _ := q.Lease("slow", now) // attempt 1
	fast, _ := q.Lease("fast", now)
	// Baseline so speculation can fire.
	if err := q.Complete(fast.ID, 0, fakePartial(fast.Spec), now.Add(10*time.Second)); err != nil {
		t.Fatal(err)
	}
	backup, ok := q.LeaseFor("idle", now.Add(40*time.Second), Speculative) // attempt 2
	if !ok {
		t.Fatal("straggler not speculated")
	}
	// Both copies of the shard fail: that is two distinct executions, so
	// two attempts — still under the bound of 3. The shard must re-issue.
	if err := q.Fail(backup.ID, "backup crashed", now.Add(41*time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := q.Fail(slow.ID, "primary crashed", now.Add(42*time.Second)); err != nil {
		t.Fatal(err)
	}
	if len(q.QuarantinedShards()) != 0 {
		t.Fatal("quarantined after primary+backup failure with one attempt left")
	}
	l3, ok := q.Lease("w3", now.Add(43*time.Second)) // attempt 3
	if !ok {
		t.Fatal("shard not re-issued with one attempt left")
	}
	// The final attempt completes: speculation never cost the shard a
	// phantom attempt.
	if err := q.Complete(l3.ID, 0, fakePartial(l3.Spec), now.Add(44*time.Second)); err != nil {
		t.Fatal(err)
	}
	if !q.Done() {
		t.Fatal("queue not done")
	}
}

// TestQueueSpeculativeGrantNeverQuarantines pins the other half of the
// interaction: even when the speculative grant itself reaches the attempt
// bound and the backup then fails, the shard is not withdrawn while its
// primary lease is live — quarantine fires only from the primary
// requeue/lease path.
func TestQueueSpeculativeGrantNeverQuarantines(t *testing.T) {
	specs := queueSpecs(t)
	q := QueueConfig{MaxAttempts: 2, Speculate: 3}.NewQueue(specs[:2], time.Hour)
	now := time.Unix(1000, 0)

	slow, _ := q.Lease("slow", now) // attempt 1
	fast, _ := q.Lease("fast", now)
	if err := q.Complete(fast.ID, 0, fakePartial(fast.Spec), now.Add(10*time.Second)); err != nil {
		t.Fatal(err)
	}
	backup, ok := q.LeaseFor("idle", now.Add(40*time.Second), Speculative) // attempt 2 = bound
	if !ok {
		t.Fatal("straggler not speculated")
	}
	if err := q.Fail(backup.ID, "backup crashed", now.Add(41*time.Second)); err != nil {
		t.Fatal(err)
	}
	if len(q.QuarantinedShards()) != 0 {
		t.Fatal("backup failure quarantined a shard whose primary is still running")
	}
	// The primary was fine all along; its completion lands normally.
	if err := q.Complete(slow.ID, 0, fakePartial(slow.Spec), now.Add(50*time.Second)); err != nil {
		t.Fatalf("primary completion refused after backup failure: %v", err)
	}
	if !q.Done() {
		t.Fatal("queue not done")
	}
}

// auditRecorder captures strike/replace hook firings.
type auditRecorder struct {
	strikes  []string
	replaced []*Partial
}

// config is full-rate auditing that records its outcomes on r.
func (r *auditRecorder) config() QueueConfig {
	return QueueConfig{
		AuditFrac: 1.0,
		AuditSeed: 42,
		OnStrike:  func(w string) { r.strikes = append(r.strikes, w) },
		OnReplace: func(_ string, p *Partial) { r.replaced = append(r.replaced, p) },
	}
}

// TestQueueAuditOutvotesFaultyOriginal walks the full audit arc: a
// sampled completion opens an audit that gates Done, independent workers
// re-execute and vote, a two-vote majority overturns the faulty original
// (replace hook + merged partial swap) and strikes the outvoted worker.
func TestQueueAuditOutvotesFaultyOriginal(t *testing.T) {
	specs := queueSpecs(t)
	rec := &auditRecorder{}
	q := rec.config().NewQueue(specs[:1], time.Minute)
	now := time.Unix(1000, 0)

	// Worker "bad" completes with a wrong verdict: same coverage, flipped
	// payload, honestly stamped — integrity cannot catch a worker that
	// computes garbage and checksums it.
	l, _ := q.Lease("bad", now)
	wrong := fakePartial(l.Spec)
	wrong.Injections[0].TimePS += 1000
	if err := wrong.Stamp(); err != nil {
		t.Fatal(err)
	}
	if err := q.Complete(l.ID, 0, wrong, now); err != nil {
		t.Fatal(err)
	}
	// The audit holds the queue open even though every shard is done.
	if q.Done() {
		t.Fatal("queue done with an audit still open")
	}
	if pr := q.Progress(now); pr.AuditsOpen != 1 {
		t.Fatalf("progress %+v, want 1 open audit", pr)
	}
	// The faulty voter cannot immediately second its own verdict.
	if _, ok := q.LeaseFor("bad", now, Audit); ok {
		t.Fatal("faulty worker handed its own audit back within the TTL")
	}
	// First independent re-execution disagrees: 1-1, no majority yet.
	al, ok := q.LeaseFor("w2", now, Audit)
	if !ok {
		t.Fatal("audit lease refused")
	}
	if !al.Audit || al.Spec.Index != 0 {
		t.Fatalf("audit lease malformed: %+v", al)
	}
	if err := q.Complete(al.ID, 0, stamped(t, al.Spec), now.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if q.Done() {
		t.Fatal("audit settled on a 1-1 split")
	}
	// Neither prior voter may break the tie — executors cache partials,
	// so a repeat vote would just replay the first, and the faulty
	// original could second its own wrong verdict into a majority.
	at := now.Add(2 * time.Second)
	for _, w := range []string{"bad", "w2"} {
		if _, ok := q.LeaseFor(w, at, Audit); ok {
			t.Fatalf("prior voter %q handed the tie-break", w)
		}
	}
	// A third, fresh worker casts the deciding vote.
	al, ok = q.LeaseFor("w3", at, Audit)
	if !ok {
		t.Fatal("tie-break audit lease refused")
	}
	if err := q.Complete(al.ID, 0, stamped(t, al.Spec), at); err != nil {
		t.Fatal(err)
	}
	if !q.Done() {
		t.Fatal("queue not done after the audit settled")
	}
	// The majority overturned the original: the merged partial is the
	// correct one, the replace hook fired with it, and only the faulty
	// worker was struck.
	if len(rec.strikes) != 1 || rec.strikes[0] != "bad" {
		t.Fatalf("strikes %v, want exactly [bad]", rec.strikes)
	}
	if len(rec.replaced) != 1 {
		t.Fatalf("replace hook fired %d times, want 1", len(rec.replaced))
	}
	merged := q.Partials()[0]
	wantSum, _ := stamped(t, l.Spec).VerdictSum()
	gotSum, _ := merged.VerdictSum()
	if gotSum != wantSum {
		t.Fatal("audit majority did not replace the faulty merged partial")
	}
	pr := q.Progress(now.Add(time.Second))
	if pr.Audited != 1 || pr.AuditDivergences != 1 || pr.AuditsOpen != 0 {
		t.Fatalf("progress %+v, want 1 audited / 1 divergence", pr)
	}
}

// TestQueueAuditConfirmsCleanOriginal pins the no-divergence path: one
// agreeing re-execution settles the audit, nothing is struck or
// replaced, and the original merges.
func TestQueueAuditConfirmsCleanOriginal(t *testing.T) {
	specs := queueSpecs(t)
	rec := &auditRecorder{}
	q := rec.config().NewQueue(specs[:1], time.Minute)
	now := time.Unix(1000, 0)

	l, _ := q.Lease("w1", now)
	original := stamped(t, l.Spec)
	if err := q.Complete(l.ID, 0, original, now); err != nil {
		t.Fatal(err)
	}
	al, ok := q.LeaseFor("w2", now, Audit)
	if !ok {
		t.Fatal("audit lease refused")
	}
	if err := q.Complete(al.ID, 0, stamped(t, al.Spec), now); err != nil {
		t.Fatal(err)
	}
	if !q.Done() {
		t.Fatal("queue not done after a confirming audit")
	}
	if len(rec.strikes) != 0 || len(rec.replaced) != 0 {
		t.Fatalf("clean audit fired hooks: strikes %v, replaced %d", rec.strikes, len(rec.replaced))
	}
	if q.Partials()[0] != original {
		t.Fatal("confirming audit replaced the original partial")
	}
	if pr := q.Progress(now); pr.Audited != 1 || pr.AuditDivergences != 0 {
		t.Fatalf("progress %+v, want 1 audited / 0 divergences", pr)
	}
}
