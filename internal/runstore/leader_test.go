package runstore

import (
	"path/filepath"
	"testing"
	"time"
)

// TestLeaderLeaseRoundTrip covers the leadership file: missing reads as
// the zero (expired, epoch 0) lease, writes replace atomically, and
// Expired follows ExpiresAt.
func TestLeaderLeaseRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl.leader")
	l, err := ReadLeaderLease(path)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(5000, 0)
	if l.Epoch != 0 || !l.Expired(now) {
		t.Fatalf("missing lease file read as %+v", l)
	}
	want := LeaderLease{Epoch: 3, Owner: "host-1:123", Addr: "127.0.0.1:9999", ExpiresAt: now.Add(10 * time.Second)}
	if err := WriteLeaderLease(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLeaderLease(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 3 || got.Owner != want.Owner || got.Addr != want.Addr || !got.ExpiresAt.Equal(want.ExpiresAt) {
		t.Fatalf("lease round-trip: got %+v", got)
	}
	if got.Expired(now) {
		t.Fatal("live lease reads as expired")
	}
	if !got.Expired(now.Add(11 * time.Second)) {
		t.Fatal("past-deadline lease reads as live")
	}
	// Epoch bumps replace the file in place.
	want.Epoch = 4
	if err := WriteLeaderLease(path, want); err != nil {
		t.Fatal(err)
	}
	if got, _ = ReadLeaderLease(path); got.Epoch != 4 {
		t.Fatalf("epoch after rewrite %d, want 4", got.Epoch)
	}
}
