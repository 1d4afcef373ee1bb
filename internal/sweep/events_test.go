package sweep

import (
	"errors"
	"testing"
	"time"

	"repro/internal/shard"
)

// eventTypes projects a slice of events to their type strings.
func eventTypes(evs []Event) []string {
	out := make([]string, len(evs))
	for i, ev := range evs {
		out[i] = ev.Type
	}
	return out
}

// TestPoolEventLog pins the live-watch event contract: a pool's stream
// starts with "submit" at seq 1, carries one lease and one complete per
// shard transition, a fenced duplicate emits "fence", "done" is the
// final event, and sequence numbers are contiguous from any resume
// point — the property SSE Last-Event-ID reconnects depend on.
func TestPoolEventLog(t *testing.T) {
	p, _ := poolWith(t, shard.QueueConfig{Epoch: 2}, 1, 2, 8)
	now := time.Unix(1000, 0)

	evs, _ := p.EventsSince(0)
	if len(evs) != 1 || evs[0].Type != "submit" || evs[0].Seq != 1 {
		t.Fatalf("fresh pool events = %+v, want one submit at seq 1", evs)
	}
	if evs[0].CampaignsTotal != 1 || evs[0].CampaignsDone != 0 {
		t.Fatalf("submit progress = %d/%d, want 0/1", evs[0].CampaignsDone, evs[0].CampaignsTotal)
	}

	// A caught-up watcher blocks on the wake channel until the next event.
	caught, wake := p.EventsSince(1)
	if len(caught) != 0 {
		t.Fatalf("caught-up watcher got %+v", caught)
	}
	l1, ok := p.Lease("w1", now)
	if !ok {
		t.Fatal("lease refused")
	}
	select {
	case <-wake:
	default:
		t.Fatal("lease did not wake the blocked watcher")
	}

	if err := p.Complete(l1.Spec.Fingerprint, l1.ID, l1.Epoch, fakePartial(l1.Spec), now); err != nil {
		t.Fatal(err)
	}
	// A zombie's duplicate completion under an older epoch is fenced and
	// the fence is visible in the stream.
	err := p.Complete(l1.Spec.Fingerprint, l1.ID, l1.Epoch-1, fakePartial(l1.Spec), now)
	if !errors.Is(err, shard.ErrStaleEpoch) {
		t.Fatalf("stale duplicate completion: %v, want ErrStaleEpoch", err)
	}

	l2, ok := p.Lease("w1", now)
	if !ok {
		t.Fatal("second lease refused")
	}
	if l2.Sweep == "" {
		t.Fatal("granted lease lacks its sweep fp12 attribution tag")
	}
	if err := p.Complete(l2.Spec.Fingerprint, l2.ID, l2.Epoch, fakePartial(l2.Spec), now); err != nil {
		t.Fatal(err)
	}

	evs, _ = p.EventsSince(0)
	want := []string{"submit", "lease", "complete", "fence", "lease", "complete", "done"}
	got := eventTypes(evs)
	if len(got) != len(want) {
		t.Fatalf("event stream %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event stream %v, want %v", got, want)
		}
		if evs[i].Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want %d (contiguous from 1)", i, evs[i].Seq, i+1)
		}
	}
	last := evs[len(evs)-1]
	if last.CampaignsDone != 1 || last.CampaignsTotal != 1 {
		t.Fatalf("done progress = %d/%d, want 1/1", last.CampaignsDone, last.CampaignsTotal)
	}

	// Resume from an arbitrary midpoint replays exactly the suffix.
	tail, _ := p.EventsSince(4)
	if len(tail) != 3 || tail[0].Seq != 5 {
		t.Fatalf("resume from seq 4 = %+v, want seqs 5..7", tail)
	}
}
