package shard

import (
	"reflect"
	"sort"
	"testing"
	"time"
)

// TestAdopt pins the one adopt sequence every holder of finished
// partials goes through: look up by (fingerprint, range), re-index for
// the adopting plan, and refuse anything that does not cover the shard
// exactly or fails its checksum.
func TestAdopt(t *testing.T) {
	sp := queueSpecs(t)[1]
	for _, tc := range []struct {
		name   string
		held   func() *Partial // what the cache answers for sp's range
		adopts bool
	}{
		{"intact", func() *Partial { return stamped(t, sp) }, true},
		{"unstamped legacy record", func() *Partial { p := fakePartial(sp); p.Checksum = ""; return p }, false},
		{"foreign plan index", func() *Partial { p := stamped(t, sp); p.Index = 7; return p }, true},
		{"miss", func() *Partial { return nil }, false},
		{"wrong range", func() *Partial { p := stamped(t, sp); p.End++; return p }, false},
		{"short injections", func() *Partial {
			p := fakePartial(sp)
			p.Injections = p.Injections[:len(p.Injections)-1]
			if err := p.Stamp(); err != nil {
				t.Fatal(err)
			}
			return p
		}, false},
		{"flipped checksum byte", func() *Partial {
			p := stamped(t, sp)
			flipped := []byte(p.Checksum)
			flipped[0] ^= 1
			p.Checksum = string(flipped)
			return p
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			held := tc.held()
			got := Adopt(staticCache{held}, sp)
			if (got != nil) != tc.adopts {
				t.Fatalf("Adopt = %+v, want adopted=%v", got, tc.adopts)
			}
			if got == nil {
				return
			}
			if got.Index != sp.Index {
				t.Fatalf("adopted partial filed under shard %d, want the adopting plan's %d", got.Index, sp.Index)
			}
			if err := got.Verify(); err != nil {
				t.Fatalf("re-indexed partial no longer verifies: %v", err)
			}
			if held.Index != sp.Index && got == held {
				t.Fatal("re-indexing mutated the cache's own object")
			}
		})
	}
	if Adopt(nil, sp) != nil {
		t.Fatal("a nil cache adopted something")
	}
}

// staticCache answers every get with one partial, whatever the key — so
// a test can hand Adopt an object that does not match what was asked for.
type staticCache struct{ p *Partial }

func (c staticCache) GetPartial(string, int, int) *Partial { return c.p }

// queueShape is the lease bookkeeping of a queue, with everything that
// legitimately differs between two ways of ending a lease (clocks,
// counters) left out.
type queueShape struct {
	State       []shardState
	Attempts    []int
	ByShard     []string
	Backups     map[int]string
	Leases      []string
	AuditHeldBy string
}

func shapeOf(q *Queue) queueShape {
	q.mu.Lock()
	defer q.mu.Unlock()
	s := queueShape{
		State:    append([]shardState(nil), q.state...),
		Attempts: append([]int(nil), q.attempts...),
		ByShard:  append([]string(nil), q.byShard...),
		Backups:  map[int]string{},
	}
	for idx, id := range q.backups {
		s.Backups[idx] = id
	}
	for id := range q.leases {
		s.Leases = append(s.Leases, id)
	}
	sort.Strings(s.Leases)
	if aud := q.audits[0]; aud != nil {
		s.AuditHeldBy = aud.lease
	}
	return s
}

// TestQueueLeaseEndingsAgree pins the single drop path: however a lease
// ends without a result — its deadline passes, its worker reports a
// crash, or its completion fails the integrity check — the queue is left
// in the same state, for a primary, a backup and an audit lease alike.
func TestQueueLeaseEndingsAgree(t *testing.T) {
	const ttl = time.Minute
	t0 := time.Unix(1000, 0)
	at := t0.Add(40 * time.Second) // every lease below is live here

	// Shard 0 is done and under audit by w3; shard 1 is held by a
	// straggling primary with a live backup.
	build := func(t *testing.T) (q *Queue, leases map[string]*Lease) {
		specs := queueSpecs(t)[:2]
		q = QueueConfig{Speculate: 3, AuditFrac: 1, AuditSeed: 1}.NewQueue(specs, ttl)
		done, _ := q.Lease("w1", t0)
		primary, _ := q.Lease("slow", t0)
		if err := q.Complete(done.ID, 0, stamped(t, done.Spec), t0.Add(10*time.Second)); err != nil {
			t.Fatal(err)
		}
		backup, ok := q.LeaseFor("idle", at, Speculative)
		if !ok {
			t.Fatal("straggler not speculated")
		}
		audit, ok := q.LeaseFor("w3", at, Audit)
		if !ok {
			t.Fatal("sampled completion not offered for audit")
		}
		return q, map[string]*Lease{"primary": primary, "backup": backup, "audit": audit}
	}
	endings := map[string]func(t *testing.T, q *Queue, l *Lease, others []*Lease){
		"fail": func(t *testing.T, q *Queue, l *Lease, _ []*Lease) {
			if err := q.Fail(l.ID, "boom", at); err != nil {
				t.Fatal(err)
			}
		},
		"integrity reject": func(t *testing.T, q *Queue, l *Lease, _ []*Lease) {
			damaged := stamped(t, l.Spec)
			damaged.Injections[0].TimePS++
			if err := q.Complete(l.ID, 0, damaged, at); err == nil {
				t.Fatal("damaged completion accepted")
			}
		},
		"expiry": func(t *testing.T, q *Queue, l *Lease, others []*Lease) {
			// Heartbeat the others past the target's deadline so only it
			// expires.
			for _, o := range others {
				if _, err := q.Renew(o.ID, at.Add(10*time.Second)); err != nil {
					t.Fatal(err)
				}
			}
			q.Progress(l.ExpiresAt.Add(time.Second))
		},
	}
	for _, kind := range []string{"primary", "backup", "audit"} {
		t.Run(kind, func(t *testing.T) {
			shapes := map[string]queueShape{}
			for name, end := range endings {
				q, leases := build(t)
				var others []*Lease
				for k, l := range leases {
					if k != kind {
						others = append(others, l)
					}
				}
				end(t, q, leases[kind], others)
				shapes[name] = shapeOf(q)
			}
			want := shapes["expiry"]
			for name, got := range shapes {
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s lease ended by %s leaves\n%+v\nexpiry leaves\n%+v", kind, name, got, want)
				}
			}
			// And that shared state is the right one: only the ended lease
			// is gone, and shard 1 never left the fleet's hands.
			if len(want.Leases) != 2 {
				t.Fatalf("%d leases survive, want the 2 that did not end: %+v", len(want.Leases), want)
			}
			if want.State[1] != stateLeased || want.ByShard[1] == "" {
				t.Fatalf("shard 1 fell out of lease: %+v", want)
			}
			switch kind {
			case "primary":
				if len(want.Backups) != 0 {
					t.Fatalf("live backup not promoted to primary: %+v", want)
				}
			case "backup":
				if len(want.Backups) != 0 {
					t.Fatalf("ended backup still filed: %+v", want)
				}
			case "audit":
				if want.AuditHeldBy != "" {
					t.Fatalf("ended audit lease still holds its audit: %+v", want)
				}
			}
		})
	}
}
