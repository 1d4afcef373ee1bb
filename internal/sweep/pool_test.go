package sweep

import (
	"errors"
	"testing"
	"time"

	"repro/internal/inject"
	"repro/internal/shard"
)

// poolSpec fabricates a distinct small campaign; pool tests never build
// or simulate anything.
func poolSpec(seed uint64) shard.CampaignSpec {
	cs := shard.SpecFromOptions(1, "memcpy", inject.DefaultOptions())
	cs.SampleFrac = 0.05
	cs.MinPer = 2
	cs.Seed = seed
	return cs
}

// poolOf builds a pool over n fabricated campaigns, each opened with
// shardsPer fake shards of jobsPer jobs.
func poolOf(t *testing.T, n, shardsPer, jobsPer int) (*Pool, [][]shard.Spec) {
	t.Helper()
	return poolWith(t, shard.QueueConfig{Speculate: DefaultSpeculateFactor}, n, shardsPer, jobsPer)
}

// poolWith is poolOf under an explicit queue configuration.
func poolWith(t *testing.T, cfg shard.QueueConfig, n, shardsPer, jobsPer int) (*Pool, [][]shard.Spec) {
	t.Helper()
	var items []Item
	for i := 0; i < n; i++ {
		items = append(items, Item{Key: string(rune('a' + i)), Campaign: poolSpec(uint64(i + 1))})
	}
	p, err := NewPoolWith(SweepSpec{Name: "test", Items: items}, time.Minute, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plans := make([][]shard.Spec, n)
	for i, it := range items {
		specs, err := shard.Plan(it.Campaign, shardsPer, jobsPer)
		if err != nil {
			t.Fatal(err)
		}
		plans[i] = specs
		if _, err := p.Open(i, specs, nil); err != nil {
			t.Fatal(err)
		}
	}
	return p, plans
}

// fakePartial fabricates a partial covering a shard spec.
func fakePartial(sp shard.Spec) *shard.Partial {
	p := &shard.Partial{Index: sp.Index, Start: sp.Start, End: sp.End}
	for i := sp.Start; i < sp.End; i++ {
		p.Injections = append(p.Injections, inject.Injection{CellID: i, Path: "stub", TimePS: uint64(i)})
	}
	return p
}

// TestPoolAffinityKeepsWorkerOnItsCampaign pins the golden-run-affinity
// ordering: a worker that just executed a shard of campaign A is handed
// A's shards while any are pending — even after completing, when A
// momentarily has no active lease — and a second worker is steered to
// the campaign with the fewest active workers instead of convoying.
func TestPoolAffinityKeepsWorkerOnItsCampaign(t *testing.T) {
	p, _ := poolOf(t, 2, 3, 9)
	now := time.Unix(1000, 0)

	l1, ok := p.Lease("w1", now)
	if !ok {
		t.Fatal("first lease refused")
	}
	fpA := l1.Spec.Fingerprint

	// A second worker must not pile onto campaign A while B is untouched.
	l2, ok := p.Lease("w2", now)
	if !ok {
		t.Fatal("second lease refused")
	}
	if l2.Spec.Fingerprint == fpA {
		t.Fatal("second worker convoyed onto the first campaign")
	}

	// w1 completes its shard; with no active lease anywhere on A, naive
	// least-loaded scheduling would bounce w1 to B — affinity must keep
	// it on A, where its golden run is cached.
	if err := p.Complete(fpA, l1.ID, 0, fakePartial(l1.Spec), now); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		l, ok := p.Lease("w1", now)
		if !ok {
			t.Fatalf("lease %d refused", i)
		}
		if l.Spec.Fingerprint != fpA {
			t.Fatalf("worker switched campaigns with its own still pending (lease %d)", i)
		}
		if err := p.Complete(fpA, l.ID, 0, fakePartial(l.Spec), now); err != nil {
			t.Fatal(err)
		}
	}
	// Campaign A drained: now w1 may switch to B.
	l, ok := p.Lease("w1", now)
	if !ok {
		t.Fatal("lease after draining own campaign refused")
	}
	if l.Spec.Fingerprint == fpA {
		t.Fatal("drained campaign leased again")
	}
}

// TestPoolIncrementalOpenAndCompletion pins the coordinator lifecycle:
// campaigns lease only once opened, completion notifications arrive per
// campaign the moment its last shard lands, and a fully journaled
// campaign completes without any lease.
func TestPoolIncrementalOpenAndCompletion(t *testing.T) {
	items := []Item{
		{Key: "a", Campaign: poolSpec(1)},
		{Key: "b", Campaign: poolSpec(2)},
	}
	p, err := NewPool(SweepSpec{Name: "test", Items: items}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1000, 0)
	if _, ok := p.Lease("w", now); ok {
		t.Fatal("lease granted before any campaign opened")
	}
	if p.Done() {
		t.Fatal("empty pool reports done")
	}

	specsA, err := shard.Plan(items[0].Campaign, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Open(0, specsA, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Open(0, specsA, nil); err == nil {
		t.Fatal("double open accepted")
	}
	// Campaign b opens later, fully covered by journal records.
	l, ok := p.Lease("w", now)
	if !ok || l.Spec.Fingerprint != cfpOf(t, items[0].Campaign) {
		t.Fatalf("lease %+v, want campaign a", l)
	}
	if err := p.Complete(l.Spec.Fingerprint, l.ID, 0, fakePartial(l.Spec), now); err != nil {
		t.Fatal(err)
	}
	l2, _ := p.Lease("w", now)
	if err := p.Complete(l2.Spec.Fingerprint, l2.ID, 0, fakePartial(l2.Spec), now); err != nil {
		t.Fatal(err)
	}
	select {
	case idx := <-p.Completed():
		if idx != 0 {
			t.Fatalf("campaign %d completed first, want 0", idx)
		}
	default:
		t.Fatal("campaign a completion not signalled")
	}
	if p.Done() {
		t.Fatal("pool done with campaign b unopened")
	}

	specsB, err := shard.Plan(items[1].Campaign, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	journaled := shard.MemPartials{}
	for _, sp := range specsB {
		journaled.PutPartial(sp.Fingerprint, fakePartial(sp))
	}
	restored, err := p.Open(1, specsB, journaled)
	if err != nil {
		t.Fatal(err)
	}
	if restored != len(specsB) {
		t.Fatalf("Open restored %d journaled shards, want %d", restored, len(specsB))
	}
	select {
	case idx := <-p.Completed():
		if idx != 1 {
			t.Fatalf("campaign %d completed, want 1", idx)
		}
	default:
		t.Fatal("journal-completed campaign not signalled")
	}
	if !p.Done() {
		t.Fatal("pool not done after both campaigns")
	}
	select {
	case <-p.WaitDone():
	default:
		t.Fatal("WaitDone channel not closed")
	}
	if got := p.Partials(1); len(got) != len(specsB) {
		t.Fatalf("campaign b kept %d partials, want %d", len(got), len(specsB))
	}
}

// TestPoolOpenSkipsStaleJournal pins the resume contract: journal
// records whose range does not match the current shard plan (e.g. a
// journal written under a different shard count) are skipped — their
// shards lease and run again — never merged, and a journaled shard is
// never leasable because Open restores it atomically.
func TestPoolOpenSkipsStaleJournal(t *testing.T) {
	items := []Item{{Key: "a", Campaign: poolSpec(1)}}
	p, err := NewPool(SweepSpec{Name: "test", Items: items}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := shard.Plan(items[0].Campaign, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	stale := fakePartial(specs[0])
	stale.End++ // journaled under a different plan
	good := fakePartial(specs[1])
	held := shard.MemPartials{}
	held.PutPartial(specs[0].Fingerprint, stale)
	held.PutPartial(specs[1].Fingerprint, good)
	restored, err := p.Open(0, specs, held)
	if err != nil {
		t.Fatal(err)
	}
	if restored != 1 {
		t.Fatalf("Open restored %d shards, want only the covering one", restored)
	}
	now := time.Unix(1000, 0)
	l, ok := p.Lease("w", now)
	if !ok || l.Spec.Index != 0 {
		t.Fatalf("lease %+v, want the stale-journaled shard 0 to run again", l)
	}
	if _, ok := p.Lease("w", now); ok {
		t.Fatal("journal-restored shard leased out")
	}
}

// TestPoolProgressDoesNotMixCampaigns pins the per-campaign progress
// satellite: each campaign block counts only its own shards, and the
// ETA derives from that campaign's observed shard runtime alone.
func TestPoolProgressDoesNotMixCampaigns(t *testing.T) {
	p, plans := poolOf(t, 2, 3, 9)
	now := time.Unix(1000, 0)

	// Complete one shard of campaign a (10s runtime) and lease one of b.
	la, ok := p.Lease("wa", now)
	if !ok {
		t.Fatal("lease refused")
	}
	fpA := plans[0][0].Fingerprint
	if la.Spec.Fingerprint != fpA {
		t.Fatal("first lease not from campaign a")
	}
	if err := p.Complete(fpA, la.ID, 0, fakePartial(la.Spec), now.Add(10*time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Lease("wb", now.Add(10*time.Second)); !ok {
		t.Fatal("lease refused")
	}

	sp := p.Progress(now.Add(10 * time.Second))
	if sp.CampaignsTotal != 2 || sp.CampaignsDone != 0 || sp.Done {
		t.Fatalf("sweep progress %+v", sp)
	}
	a, b := sp.Campaigns[0], sp.Campaigns[1]
	if a.Shards.Done != 1 || a.Shards.Total != 3 {
		t.Fatalf("campaign a shards %+v", a.Shards)
	}
	if b.Shards.Done != 0 || b.Shards.Leased != 1 || b.Shards.Total != 3 {
		t.Fatalf("campaign b shards %+v", b.Shards)
	}
	if a.Shards.AvgShardNS != int64(10*time.Second) {
		t.Fatalf("campaign a avg shard %v", time.Duration(a.Shards.AvgShardNS))
	}
	if b.Shards.AvgShardNS != 0 || b.ETANS != 0 {
		t.Fatalf("campaign b inherited a's runtime: %+v", b)
	}
	// a: avg 10s, 2 remaining (1 pending + 1 leased)... a has 1 done, 1
	// leased? No: wa completed its lease, then wb went to b. a has 1 done,
	// 2 pending, 0 leased -> ETA = 10s * 2 / 1.
	if want := int64(20 * time.Second); a.ETANS != want {
		t.Fatalf("campaign a ETA %v, want %v", time.Duration(a.ETANS), time.Duration(want))
	}
}

// TestPoolRoutesByFingerprint pins completion/renewal routing: results
// and heartbeats carry the campaign fingerprint, and a wrong one is
// refused instead of corrupting another campaign's queue.
func TestPoolRoutesByFingerprint(t *testing.T) {
	p, plans := poolOf(t, 2, 2, 4)
	now := time.Unix(1000, 0)
	l, ok := p.Lease("w", now)
	if !ok {
		t.Fatal("lease refused")
	}
	other := plans[1][0].Fingerprint
	if l.Spec.Fingerprint == other {
		other = plans[0][0].Fingerprint
	}
	if err := p.Complete("nonsense", l.ID, 0, fakePartial(l.Spec), now); err == nil {
		t.Fatal("unknown fingerprint accepted")
	}
	if _, err := p.Renew(other, l.ID, now); err == nil {
		t.Fatal("renewal routed to the wrong campaign succeeded")
	}
	if _, err := p.Renew(l.Spec.Fingerprint, l.ID, now.Add(30*time.Second)); err != nil {
		t.Fatalf("legitimate renewal failed: %v", err)
	}
	// The renewal kept the lease alive past the original TTL: other
	// shards may lease at +80s, but never the renewed one.
	for {
		stolen, ok := p.Lease("thief", now.Add(80*time.Second))
		if !ok {
			break
		}
		if stolen.Spec.Fingerprint == l.Spec.Fingerprint && stolen.Spec.Index == l.Spec.Index {
			t.Fatal("renewed lease's shard re-issued before its extended deadline")
		}
	}
	if err := p.Complete(l.Spec.Fingerprint, l.ID, 0, fakePartial(l.Spec), now.Add(85*time.Second)); err != nil {
		t.Fatalf("completion after renewal rejected: %v", err)
	}
}

// TestPoolSpeculativeReissue pins straggler re-issue at the sweep level:
// with every shard of the grid either done or leased, an idle worker is
// handed a backup of the straggling shard — and the speculative
// duplicate resolves first-wins, whichever copy lands second refused.
func TestPoolSpeculativeReissue(t *testing.T) {
	p, _ := poolOf(t, 1, 2, 8)
	now := time.Unix(1000, 0)

	slow, ok := p.Lease("slow", now)
	if !ok {
		t.Fatal("lease refused")
	}
	fast, ok := p.Lease("fast", now)
	if !ok {
		t.Fatal("lease refused")
	}
	// fast finishes in 5s (the baseline); slow straggles.
	if err := p.Complete(fast.Spec.Fingerprint, fast.ID, 0, fakePartial(fast.Spec), now.Add(5*time.Second)); err != nil {
		t.Fatal(err)
	}
	// Below the threshold the idle worker gets nothing.
	if _, ok := p.Lease("idle", now.Add(10*time.Second)); ok {
		t.Fatal("speculated below the straggler threshold")
	}
	// Past 3x the baseline the pool re-issues the straggler's shard.
	backup, ok := p.Lease("idle", now.Add(20*time.Second))
	if !ok {
		t.Fatal("idle worker not handed a straggler backup")
	}
	if backup.Spec.Index != slow.Spec.Index || backup.Spec.Fingerprint != slow.Spec.Fingerprint {
		t.Fatalf("backup covers %.12s shard %d, straggler is %.12s shard %d",
			backup.Spec.Fingerprint, backup.Spec.Index, slow.Spec.Fingerprint, slow.Spec.Index)
	}
	// First completion wins; the straggler's late copy is refused and the
	// sweep completes exactly once.
	if err := p.Complete(backup.Spec.Fingerprint, backup.ID, 0, fakePartial(backup.Spec), now.Add(21*time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := p.Complete(slow.Spec.Fingerprint, slow.ID, 0, fakePartial(slow.Spec), now.Add(22*time.Second)); err == nil {
		t.Fatal("speculative duplicate double-merged")
	}
	if !p.Done() {
		t.Fatal("sweep not done")
	}
	if pr := p.Progress(now.Add(22 * time.Second)); pr.Campaigns[0].Shards.Speculated != 1 {
		t.Fatalf("progress %+v, want 1 speculated", pr.Campaigns[0].Shards)
	}
}

// TestPoolSpeculationDisabled: factor <= 0 switches the backup-task path
// off entirely.
func TestPoolSpeculationDisabled(t *testing.T) {
	p, _ := poolWith(t, shard.QueueConfig{}, 1, 2, 8)
	now := time.Unix(1000, 0)
	slow, _ := p.Lease("slow", now)
	fast, _ := p.Lease("fast", now)
	if err := p.Complete(fast.Spec.Fingerprint, fast.ID, 0, fakePartial(fast.Spec), now.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Lease("idle", now.Add(30*time.Second)); ok {
		t.Fatal("speculated with speculation disabled")
	}
	_ = slow
}

// TestPoolEpochThreading pins the fence at the pool level: the epoch a
// pool is built with reaches every queue it opens, leases carry it, and
// after a takeover (a successor pool under a higher epoch — a pool's
// configuration cannot change once built) a stale-epoch duplicate is
// fenced with shard.ErrStaleEpoch while a pre-takeover completion of an
// unfinished shard is still accepted.
func TestPoolEpochThreading(t *testing.T) {
	old, _ := poolWith(t, shard.QueueConfig{Epoch: 3}, 2, 2, 8)
	now := time.Unix(1000, 0)

	zombie, ok := old.Lease("zombie", now)
	if !ok {
		t.Fatal("lease refused")
	}
	if zombie.Epoch != 3 {
		t.Fatalf("lease epoch %d, want 3", zombie.Epoch)
	}
	// Takeover: the successor serves the same grid under epoch 4.
	p, plans := poolWith(t, shard.QueueConfig{Epoch: 4}, 2, 2, 8)
	if err := p.Complete(zombie.Spec.Fingerprint, zombie.ID, zombie.Epoch, fakePartial(zombie.Spec), now); err != nil {
		t.Fatalf("first-wins completion under an old epoch rejected: %v", err)
	}
	err := p.Complete(zombie.Spec.Fingerprint, zombie.ID, zombie.Epoch, fakePartial(zombie.Spec), now)
	if !errors.Is(err, shard.ErrStaleEpoch) {
		t.Fatalf("stale duplicate not fenced: %v", err)
	}
	// Every campaign's queue grants the pool's epoch.
	seen := map[string]bool{}
	for range plans[0] {
		for range plans {
			l, ok := p.Lease("w"+string(rune('0'+len(seen))), now)
			if !ok {
				break
			}
			if l.Epoch != 4 {
				t.Fatalf("post-takeover lease epoch %d, want 4", l.Epoch)
			}
			seen[l.Spec.Fingerprint] = true
		}
	}
	if len(seen) != len(plans) {
		t.Fatalf("leases drawn from %d campaigns, want all %d", len(seen), len(plans))
	}
}
