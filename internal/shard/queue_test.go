package shard

import (
	"errors"
	"testing"
	"time"

	"repro/internal/inject"
)

// injectionStub fills a fake partial's slot for plan index i.
func injectionStub(i int) inject.Injection {
	return inject.Injection{CellID: i, Path: "stub", TimePS: uint64(i)}
}

// queueSpecs plans a tiny 4-shard campaign without building anything —
// the queue never looks inside the campaign spec.
func queueSpecs(t *testing.T) []Spec {
	t.Helper()
	specs, err := Plan(testSpec("EventSim", 0.05), 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

// fakePartial fabricates a partial covering a shard spec; queue tests
// never execute simulations.
func fakePartial(sp Spec) *Partial {
	p := &Partial{Index: sp.Index, Start: sp.Start, End: sp.End}
	for i := sp.Start; i < sp.End; i++ {
		p.Injections = append(p.Injections, injectionStub(i))
	}
	if err := p.Stamp(); err != nil {
		panic(err)
	}
	return p
}

func TestQueueLeaseCompleteLifecycle(t *testing.T) {
	specs := queueSpecs(t)
	q := NewQueue(specs, time.Minute)
	now := time.Unix(1000, 0)

	seen := map[int]bool{}
	var leases []*Lease
	for i := 0; i < len(specs); i++ {
		l, ok := q.Lease("w1", now)
		if !ok {
			t.Fatalf("lease %d refused with shards pending", i)
		}
		if seen[l.Spec.Index] {
			t.Fatalf("shard %d leased twice concurrently", l.Spec.Index)
		}
		seen[l.Spec.Index] = true
		leases = append(leases, l)
	}
	if _, ok := q.Lease("w2", now); ok {
		t.Fatal("lease granted with every shard already leased")
	}
	if q.Done() {
		t.Fatal("queue done with nothing completed")
	}
	for _, l := range leases {
		if err := q.Complete(l.ID, 0, fakePartial(l.Spec), now); err != nil {
			t.Fatal(err)
		}
	}
	if !q.Done() {
		t.Fatal("queue not done after all completions")
	}
	select {
	case <-q.WaitDone():
	default:
		t.Fatal("WaitDone channel not closed")
	}
	pr := q.Progress(now)
	if pr.Done != 4 || pr.Pending != 0 || pr.Leased != 0 {
		t.Fatalf("progress %+v after completion", pr)
	}
}

func TestQueueExpiryRequeuesDeadWorkersShard(t *testing.T) {
	specs := queueSpecs(t)
	q := NewQueue(specs, 10*time.Second)
	now := time.Unix(1000, 0)

	dead, ok := q.Lease("doomed", now)
	if !ok {
		t.Fatal("initial lease refused")
	}
	// Within the TTL the shard stays claimed.
	for i := 1; i < len(specs); i++ {
		q.Lease("w1", now.Add(time.Second))
	}
	if _, ok := q.Lease("w1", now.Add(2*time.Second)); ok {
		t.Fatal("leased shard re-issued before expiry")
	}
	// After the TTL the dead worker's shard is re-issued...
	late := now.Add(11 * time.Second)
	release, ok := q.Lease("w2", late)
	if !ok {
		t.Fatal("expired shard not re-issued")
	}
	if release.Spec.Index != dead.Spec.Index {
		t.Fatalf("re-issued shard %d, want the expired %d", release.Spec.Index, dead.Spec.Index)
	}
	// ...and a slow (not dead after all) worker's late completion is
	// still accepted while the shard remains unfinished — deterministic
	// execution makes its result identical to any re-execution, and
	// rejecting it would livelock campaigns whose shards outlive the TTL.
	if err := q.Complete(dead.ID, 0, fakePartial(dead.Spec), late); err != nil {
		t.Fatalf("late completion of an unfinished shard rejected: %v", err)
	}
	// The re-issued lease's duplicate is refused: the shard is done.
	if err := q.Complete(release.ID, 0, fakePartial(release.Spec), late); err == nil {
		t.Fatal("duplicate completion of a done shard accepted")
	}
	if pr := q.Progress(late); pr.Done != 1 {
		t.Fatalf("progress %+v, want 1 done", pr)
	}
}

func TestQueueMarkDoneFromJournal(t *testing.T) {
	specs := queueSpecs(t)
	q := NewQueue(specs, time.Minute)
	if err := q.MarkDone(fakePartial(specs[1])); err != nil {
		t.Fatal(err)
	}
	// A journal entry from a different shard plan must be rejected.
	stale := fakePartial(specs[2])
	stale.End++
	if err := q.MarkDone(stale); err == nil {
		t.Fatal("mismatched journal entry accepted")
	}
	now := time.Unix(1000, 0)
	for {
		l, ok := q.Lease("w", now)
		if !ok {
			break
		}
		if l.Spec.Index == 1 {
			t.Fatal("journal-completed shard leased out")
		}
		if err := q.Complete(l.ID, 0, fakePartial(l.Spec), now); err != nil {
			t.Fatal(err)
		}
	}
	if !q.Done() {
		t.Fatal("queue not done")
	}
	for i, p := range q.Partials() {
		if p == nil || p.Index != i {
			t.Fatalf("partial %d missing or misindexed: %+v", i, p)
		}
	}
}

// TestQueueRenewKeepsLiveShardLeased pins the heartbeat satellite: a
// renewed lease outlives the configured TTL, so a live shard that
// outruns -lease is never redundantly re-issued to an idle worker —
// while a worker that stops heartbeating still loses its lease.
func TestQueueRenewKeepsLiveShardLeased(t *testing.T) {
	specs := queueSpecs(t)
	q := NewQueue(specs[:1], 10*time.Second)
	now := time.Unix(1000, 0)
	l, ok := q.Lease("w1", now)
	if !ok {
		t.Fatal("initial lease refused")
	}
	if l.TTL != 10*time.Second {
		t.Fatalf("lease carries TTL %v, want 10s", l.TTL)
	}
	// Heartbeat every 4s for 40s: far past the original deadline, the
	// shard must stay leased.
	for i := 1; i <= 10; i++ {
		at := now.Add(time.Duration(i) * 4 * time.Second)
		exp, err := q.Renew(l.ID, at)
		if err != nil {
			t.Fatalf("renew %d: %v", i, err)
		}
		if want := at.Add(10 * time.Second); !exp.Equal(want) {
			t.Fatalf("renew %d extended to %v, want %v", i, exp, want)
		}
		if _, ok := q.Lease("idle", at); ok {
			t.Fatalf("renewed shard re-issued at +%v", at.Sub(now))
		}
	}
	// Stop heartbeating: one TTL later the shard is re-issued, and
	// renewing the stale lease fails.
	late := now.Add(51 * time.Second)
	if _, ok := q.Lease("w2", late); !ok {
		t.Fatal("unrenewed shard not re-issued after TTL")
	}
	if _, err := q.Renew(l.ID, late); err == nil {
		t.Fatal("renewing an expired lease succeeded")
	}
	// The slow original worker's completion is still accepted.
	if err := q.Complete(l.ID, 0, fakePartial(l.Spec), late); err != nil {
		t.Fatalf("late completion rejected after failed renew: %v", err)
	}
}

// TestQueueObservesShardDurations pins the ETA input: Progress reports
// the mean lease-to-completion time of finished shards.
func TestQueueObservesShardDurations(t *testing.T) {
	specs := queueSpecs(t)
	q := NewQueue(specs, time.Minute)
	now := time.Unix(1000, 0)
	l1, _ := q.Lease("w", now)
	if err := q.Complete(l1.ID, 0, fakePartial(l1.Spec), now.Add(10*time.Second)); err != nil {
		t.Fatal(err)
	}
	l2, _ := q.Lease("w", now.Add(10*time.Second))
	if err := q.Complete(l2.ID, 0, fakePartial(l2.Spec), now.Add(30*time.Second)); err != nil {
		t.Fatal(err)
	}
	pr := q.Progress(now.Add(30 * time.Second))
	if want := int64(15 * time.Second); pr.AvgShardNS != want {
		t.Fatalf("avg shard duration %v, want %v", time.Duration(pr.AvgShardNS), time.Duration(want))
	}
}

// TestQueueAllFromJournal pins the restart fast path: a journal that
// already covers every shard completes the queue with no worker at all.
func TestQueueAllFromJournal(t *testing.T) {
	specs := queueSpecs(t)
	q := NewQueue(specs, time.Minute)
	for _, sp := range specs {
		if err := q.MarkDone(fakePartial(sp)); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-q.WaitDone():
	default:
		t.Fatal("fully journaled queue never reported done")
	}
}

// TestQueueStaleEpochFenced pins the fencing-token invariant: a
// completion delivered under an epoch older than the queue's is accepted
// while its shard is still unfinished (first-wins — the data is valid),
// but once the shard is done the stale duplicate is refused with
// ErrStaleEpoch and counted, so a deposed coordinator's zombie workers
// can never double-merge a shard.
func TestQueueStaleEpochFenced(t *testing.T) {
	specs := queueSpecs(t)
	now := time.Unix(1000, 0)

	zombie, ok := QueueConfig{Epoch: 1}.NewQueue(specs, time.Minute).Lease("zombie", now)
	if !ok {
		t.Fatal("lease refused")
	}
	if zombie.Epoch != 1 {
		t.Fatalf("lease carries epoch %d, want 1", zombie.Epoch)
	}

	// Failover: the successor rebuilds the queue under epoch 2.
	q := QueueConfig{Epoch: 2}.NewQueue(specs, time.Minute)

	// The zombie's completion of a still-unfinished shard is accepted —
	// first wins, regardless of epoch.
	if err := q.Complete(zombie.ID, zombie.Epoch, fakePartial(zombie.Spec), now); err != nil {
		t.Fatalf("stale-epoch completion of an unfinished shard rejected: %v", err)
	}
	// A second stale-epoch delivery of the now-done shard is fenced.
	err := q.Complete(zombie.ID, zombie.Epoch, fakePartial(zombie.Spec), now)
	if !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("stale duplicate not fenced with ErrStaleEpoch: %v", err)
	}
	// A current-epoch duplicate is an ordinary refusal, not a fence.
	l2, _ := q.Lease("w2", now)
	if err := q.Complete(l2.ID, l2.Epoch, fakePartial(l2.Spec), now); err != nil {
		t.Fatal(err)
	}
	if err := q.Complete(l2.ID, l2.Epoch, fakePartial(l2.Spec), now); err == nil || errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("current-epoch duplicate misclassified: %v", err)
	}
	if pr := q.Progress(now); pr.Fenced != 1 {
		t.Fatalf("progress counts %d fenced completions, want 1", pr.Fenced)
	}
}

// TestQueueSpeculativeLease pins straggler re-issue: once a baseline
// shard duration exists, a shard whose lease has run k x that baseline
// is re-issued to a second worker; whichever copy lands first wins and
// the loser's duplicate is refused — and no shard ever carries more than
// one backup.
func TestQueueSpeculativeLease(t *testing.T) {
	specs := queueSpecs(t)
	q := QueueConfig{Speculate: 3}.NewQueue(specs, time.Hour) // TTL far away: speculation must beat expiry
	now := time.Unix(1000, 0)

	slow, _ := q.Lease("slow", now)
	fast, _ := q.Lease("fast", now)
	// No baseline yet: nothing speculates no matter how old the leases.
	if _, ok := q.LeaseFor("idle", now.Add(30*time.Minute), Speculative); ok {
		t.Fatal("speculated without any observed shard duration")
	}
	// fast finishes in 10s — the baseline.
	if err := q.Complete(fast.ID, 0, fakePartial(fast.Spec), now.Add(10*time.Second)); err != nil {
		t.Fatal(err)
	}
	// At 25s the slow lease is 2.5x the baseline: below factor 3.
	if _, ok := q.LeaseFor("idle", now.Add(25*time.Second), Speculative); ok {
		t.Fatal("speculated below the age threshold")
	}
	// At 40s it crosses 3x: re-issued to a different worker...
	backup, ok := q.LeaseFor("idle", now.Add(40*time.Second), Speculative)
	if !ok {
		t.Fatal("straggler not re-issued past the age threshold")
	}
	if backup.Spec.Index != slow.Spec.Index {
		t.Fatalf("backup covers shard %d, straggler is %d", backup.Spec.Index, slow.Spec.Index)
	}
	if backup.Worker != "idle" {
		t.Fatalf("backup granted to %q", backup.Worker)
	}
	// ...but never to the straggler's own worker, and never twice.
	if _, ok := q.LeaseFor("slow", now.Add(40*time.Second), Speculative); ok {
		t.Fatal("straggler's own worker handed its shard back")
	}
	if _, ok := q.LeaseFor("idle2", now.Add(40*time.Second), Speculative); ok {
		t.Fatal("second backup issued for the same shard")
	}
	// First completion wins — here the backup — and the straggler's late
	// copy is refused as an ordinary duplicate.
	if err := q.Complete(backup.ID, 0, fakePartial(backup.Spec), now.Add(41*time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := q.Complete(slow.ID, 0, fakePartial(slow.Spec), now.Add(42*time.Second)); err == nil {
		t.Fatal("straggler's duplicate of a speculated shard accepted")
	}
	if pr := q.Progress(now.Add(42 * time.Second)); pr.Speculated != 1 || pr.Done != 2 {
		t.Fatalf("progress %+v, want 1 speculated / 2 done", pr)
	}
}

// TestQueueBackupPromotedOnPrimaryExpiry: when a speculated shard's
// primary lease expires while the backup is live, the backup becomes the
// primary — the shard stays leased exactly once instead of returning to
// pending and being triple-issued.
func TestQueueBackupPromotedOnPrimaryExpiry(t *testing.T) {
	specs := queueSpecs(t)
	q := QueueConfig{Speculate: 3}.NewQueue(specs[:2], 30*time.Second)
	now := time.Unix(1000, 0)
	slow, _ := q.Lease("slow", now)
	fast, _ := q.Lease("fast", now)
	if err := q.Complete(fast.ID, 0, fakePartial(fast.Spec), now.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	backup, ok := q.LeaseFor("idle", now.Add(10*time.Second), Speculative)
	if !ok {
		t.Fatal("straggler not re-issued")
	}
	// The primary expires at +30s; the backup (granted +10s) lives to +40s.
	at := now.Add(35 * time.Second)
	if _, ok := q.Lease("w3", at); ok {
		t.Fatal("speculated shard re-issued a third time after primary expiry")
	}
	if pr := q.Progress(at); pr.Leased != 1 || pr.Pending != 0 {
		t.Fatalf("progress %+v, want the shard still leased via its backup", pr)
	}
	if err := q.Complete(backup.ID, 0, fakePartial(backup.Spec), at); err != nil {
		t.Fatalf("promoted backup's completion rejected: %v", err)
	}
	if !q.Done() {
		t.Fatal("queue not done")
	}
	_ = slow
}
