package runstore

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// LeaderLease is the coordinator leadership file kept next to the
// journal (journal path + ".leader"). The leader writes it at startup
// with an epoch one above whatever it found, then rewrites it on a
// heartbeat interval to push ExpiresAt forward; a warm standby polls it
// and takes over once it expires, writing its own lease with a higher
// epoch. The epoch is the fencing token threaded through every lease the
// coordinator grants — a deposed leader that observes a higher epoch in
// the file must stop serving immediately.
//
// This package keeps only the file I/O; the coordinator's claim, renewal
// and release (cmd/campaignd) are its only readers and writers.
//
// The file coordinates processes sharing a filesystem, matching the
// journal's own model (the journal is the source of truth a standby
// replays when it takes over). It is advisory against clock skew the way
// all lease schemes are; the epoch fence is what protects results when
// timing goes wrong.
type LeaderLease struct {
	Epoch     uint64    `json:"epoch"`
	Owner     string    `json:"owner"`
	Addr      string    `json:"addr"`
	ExpiresAt time.Time `json:"expires_at"`
}

// Expired reports whether the lease no longer protects its holder at
// the given instant. The zero lease is expired.
func (l LeaderLease) Expired(now time.Time) bool {
	return !l.ExpiresAt.After(now)
}

// ReadLeaderLease loads the leadership file. A missing file returns the
// zero lease (epoch 0, expired) and no error — the state before any
// leader ever ran.
func ReadLeaderLease(path string) (LeaderLease, error) {
	var l LeaderLease
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return l, nil
		}
		return l, fmt.Errorf("runstore: leader lease: %v", err)
	}
	if err := json.Unmarshal(data, &l); err != nil {
		// A torn write cannot happen (rename is atomic) but a hand-edited
		// or corrupt file can; treat it as no leader rather than wedging.
		return LeaderLease{}, nil
	}
	return l, nil
}

// WriteLeaderLease atomically replaces the leadership file via a temp
// file and rename, so readers only ever observe a complete lease.
func WriteLeaderLease(path string, l LeaderLease) error {
	data, err := json.Marshal(l)
	if err != nil {
		return fmt.Errorf("runstore: leader lease: %v", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("runstore: leader lease: %v", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("runstore: leader lease: %v", err)
	}
	return nil
}
