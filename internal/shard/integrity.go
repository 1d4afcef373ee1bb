package shard

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
)

// ErrIntegrity is the sentinel every partial-checksum mismatch wraps:
// the bytes of a Partial do not hash to the checksum stamped on it at
// execution time, so somewhere between the executor and this verifier —
// the wire, the journal, a lake blob — the result was corrupted. Match
// with errors.Is; the concrete *IntegrityError carries the range and the
// two sums. The one correct reaction everywhere is to drop the partial
// and re-derive it (re-issue the shard, skip the journal record, treat
// the lake entry as a miss): corruption degrades to re-simulation, never
// to wrong output.
var ErrIntegrity = errors.New("shard: partial integrity checksum mismatch")

// IntegrityError is a checksum mismatch on one partial.
type IntegrityError struct {
	Start, End int
	Want, Got  string // stamped vs recomputed sha256, hex
}

func (e *IntegrityError) Error() string {
	return fmt.Sprintf("shard: partial [%d,%d) integrity checksum mismatch: stamped %.12s, content hashes to %.12s",
		e.Start, e.End, e.Want, e.Got)
}

// Is makes errors.Is(err, ErrIntegrity) match.
func (e *IntegrityError) Is(target error) bool { return target == ErrIntegrity }

// Sum is the partial's integrity checksum: sha256 over the canonical
// JSON encoding of the partial with two fields excluded. Checksum is
// excluded because it is the stamp itself. Index is excluded because it
// is plan-local routing, legitimately rewritten when a lake-published
// partial is adopted under a different shard plan — the checksum guards
// the computed payload (range, verdicts, work counters), not where the
// payload is filed.
func (p *Partial) Sum() (string, error) {
	c := *p
	c.Index = 0
	c.Checksum = ""
	b, err := json.Marshal(c)
	if err != nil {
		return "", fmt.Errorf("shard: marshaling partial for checksum: %v", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Stamp computes and stores the integrity checksum. The executor stamps
// every partial it computes; everything downstream only verifies.
func (p *Partial) Stamp() error {
	sum, err := p.Sum()
	if err != nil {
		return err
	}
	p.Checksum = sum
	return nil
}

// Verify recomputes the checksum and compares it to the stamp, returning
// an *IntegrityError (errors.Is ErrIntegrity) on mismatch. An unstamped
// partial mismatches like any other: a damaged "checksum" key decodes to
// an empty stamp, so a record without one reads as damaged and its shard
// re-simulates.
func (p *Partial) Verify() error {
	if p == nil {
		return nil
	}
	sum, err := p.Sum()
	if err != nil {
		return err
	}
	if sum != p.Checksum {
		return &IntegrityError{Start: p.Start, End: p.End, Want: p.Checksum, Got: sum}
	}
	return nil
}

// VerdictSum hashes only the cross-execution-stable payload of a
// partial: its plan range and the verdicts themselves. Work counters
// (evals, warm starts, pruned runs, wall times) legitimately differ
// between two correct executions — different checkpoint pitch, different
// machine — so the integrity Checksum, which covers them, can only ever
// compare a partial against its own bytes. VerdictSum is what audit
// re-execution compares across workers: two honest executions of one
// shard agree on it bit for bit, whatever hardware ran them.
func (p *Partial) VerdictSum() (string, error) {
	c := struct {
		Start      int         `json:"start"`
		End        int         `json:"end"`
		Injections interface{} `json:"injections"`
	}{Start: p.Start, End: p.End, Injections: p.Injections}
	b, err := json.Marshal(c)
	if err != nil {
		return "", fmt.Errorf("shard: marshaling partial for verdict sum: %v", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// ExecPanicError is a shard execution that panicked inside the
// simulator. The worker's executor converts the crash into this typed
// error so the work loop can report the shard failed (with the panic
// message) through POST /v1/shards/fail and keep serving, instead of
// dying and leaving the coordinator to infer the failure from a silent
// lease expiry.
type ExecPanicError struct {
	Msg string
}

func (e *ExecPanicError) Error() string {
	return "shard: execution panicked: " + e.Msg
}
