// Package capi is the coordinator's versioned wire surface: the request
// and reply types of every /v1 endpoint, the uniform JSON error
// envelope, and a typed Client that speaks the protocol with context
// support and retry/backoff — the one place coordinator HTTP plumbing
// lives, instead of each worker loop, CLI and test hand-rolling its own
// http.Post calls.
//
// The protocol is resource-oriented: sweeps are the resources. A sweep
// is submitted as a declarative sweep.GridParams (grid kind plus
// parameters), which the coordinator resolves through the same grid
// constructors the CLIs use — so a submitted sweep enumerates exactly
// the campaign fingerprints `socfault -sweep` runs locally, and its
// fetched results are byte-comparable to the local run.
//
//	POST   /v1/sweeps               SubmitRequest -> 201/200 SubmitReply
//	GET    /v1/sweeps               -> 200 []SweepSummary
//	GET    /v1/sweeps/{fp}          -> 200 SweepStatus
//	GET    /v1/sweeps/{fp}?watch=1  -> 200 text/event-stream of SweepEvent,
//	                                closed by a terminal "status" message;
//	                                Last-Event-ID resumes
//	GET    /v1/sweeps/{fp}/results  -> 200 text/plain rendered grid
//	DELETE /v1/sweeps/{fp}          -> 200 SweepStatus (cancel)
//	POST   /v1/lease                LeaseRequest -> 200 shard.Lease,
//	                                204 idle, 410 drained
//	POST   /v1/complete             CompleteRequest -> 200,
//	                                409 integrity_mismatch on checksum
//	                                failure (the shard is re-issued)
//	POST   /v1/renew                RenewRequest -> 200 RenewReply
//	POST   /v1/shards/fail          FailRequest -> 200 (execution failure
//	                                report; the shard requeues or, past
//	                                its attempt bound, quarantines)
//	POST   /v1/workers/{name}/metrics  exposition text -> 204 (federation
//	                                push; merged view at GET /metrics/fleet)
//
// Coordinators serving an artifact lake (-lake-dir) additionally expose
// its read-only surface: blobs are raw bytes keyed by their sha256, and
// keys are durable names resolved to blob hashes. The coordinator is the
// lake's only writer (it publishes every golden before the campaign's
// shards can be leased, and every accepted partial), so any other method
// on these paths answers 405. Every lake endpoint answers 503 +
// Retry-After while the store is unavailable; lake clients treat any
// error as a cache miss and compute locally.
//
//	GET    /v1/artifacts/{hash}     -> 200 raw blob, or 404
//	GET    /v1/lake/keys/{key...}   -> 200 LakeKeyReply, or 404
//
// Every error reply is the JSON envelope {"error":{"code","message"}}
// with Content-Type application/json and a meaningful status code.
package capi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/shard"
	"repro/internal/sweep"
)

// Version is the API version prefix every endpoint lives under.
const Version = "v1"

// Sweep lifecycle states, as reported by SweepSummary and SweepStatus.
const (
	StateRunning   = "running"   // building/opening campaigns or draining shards
	StateDone      = "done"      // every campaign merged; results fetchable
	StateCancelled = "cancelled" // cancelled; unopened campaigns never ran
	StateFailed    = "failed"    // a campaign failed to build/plan/merge
)

// TerminalState reports whether a sweep in the given state will never
// change again.
func TerminalState(state string) bool {
	return state == StateDone || state == StateCancelled || state == StateFailed
}

// SubmitRequest asks a coordinator to serve a sweep. The grid is
// described declaratively — never as pre-built campaign specs — so the
// coordinator resolves it through the shared constructors and the
// submitted sweep is fingerprint-identical to the same grid anywhere
// else.
type SubmitRequest struct {
	Params sweep.GridParams `json:"params"`
}

// SubmitReply identifies the submitted sweep resource. Submission is
// idempotent on the sweep fingerprint: resubmitting a live or completed
// grid returns the existing resource with Created false (status 200
// instead of 201).
type SubmitReply struct {
	Fingerprint string `json:"fingerprint"`
	Name        string `json:"name"`
	Campaigns   int    `json:"campaigns"`
	State       string `json:"state"`
	Created     bool   `json:"created"`
}

// SweepSummary is one entry of the sweep listing.
type SweepSummary struct {
	Fingerprint    string `json:"fingerprint"`
	Name           string `json:"name"`
	State          string `json:"state"`
	CampaignsTotal int    `json:"campaigns_total"`
	CampaignsDone  int    `json:"campaigns_done"`
}

// SweepStatus is one sweep's full status: lifecycle state plus the
// per-campaign progress blocks (shard counts and ETAs never mix
// campaign fingerprints).
type SweepStatus struct {
	Fingerprint string              `json:"fingerprint"`
	Name        string              `json:"name"`
	State       string              `json:"state"`
	Error       string              `json:"error,omitempty"` // set when State is failed
	Progress    sweep.SweepProgress `json:"progress"`
	// Cost is the sweep's accumulated simulation spend, summed over the
	// journaled shard results of its campaigns — per-sweep accounting for
	// the future quota/fair-share scheduler. Present once any shard has
	// been journaled.
	Cost *SweepCost `json:"cost,omitempty"`
}

// SweepCost is a sweep's resource accounting: totals over every shard
// result the coordinator has journaled for it (first result per shard
// wins, so duplicated or speculated shards are not double-billed).
type SweepCost struct {
	Shards        int    `json:"shards"`
	InjectEvals   uint64 `json:"inject_evals"`
	InjectWallNS  int64  `json:"inject_wall_ns"`
	RestoreWallNS int64  `json:"restore_wall_ns"`
	WarmStarts    uint64 `json:"warm_starts"`
	PrunedRuns    uint64 `json:"pruned_runs"`
	// DeltaRestores sums inject.Work.DeltaRestores, which new work leaves
	// at zero; only results journaled by older workers add to it.
	DeltaRestores uint64 `json:"delta_restores"`
}

// SweepEvent is one entry of the ?watch=1 SSE stream — the wire shape is
// sweep.Event verbatim (per-sweep monotonic Seq starting at 1, gap-free;
// the SSE id field carries the same Seq for Last-Event-ID resume).
type SweepEvent = sweep.Event

// LeaseRequest asks for one shard lease.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// CompleteRequest delivers one shard's partial result, routed by the
// shard's campaign fingerprint — the durable key a worker always holds,
// because an expired lease ID is forgotten by the pool. Epoch echoes the
// lease's fencing token (shard.Lease.Epoch); a coordinator that has
// failed over fences stale-epoch duplicates with CodeStaleEpoch.
type CompleteRequest struct {
	LeaseID     string         `json:"lease_id"`
	Fingerprint string         `json:"fingerprint"`
	Epoch       uint64         `json:"epoch,omitempty"`
	Partial     *shard.Partial `json:"partial"`
}

// RenewRequest heartbeats a live lease, routed like CompleteRequest.
type RenewRequest struct {
	LeaseID     string `json:"lease_id"`
	Fingerprint string `json:"fingerprint"`
}

// FailRequest reports a shard execution failure — typically a panic the
// worker's executor recovered — routed like CompleteRequest. Reporting
// lets the coordinator requeue (or quarantine) the shard immediately
// and with a reason, instead of inferring the failure from a silent
// lease expiry.
type FailRequest struct {
	LeaseID     string `json:"lease_id"`
	Fingerprint string `json:"fingerprint"`
	Worker      string `json:"worker,omitempty"`
	Reason      string `json:"reason"`
}

// RenewReply carries the renewed lease deadline.
type RenewReply struct {
	ExpiresAt time.Time `json:"expires_at"`
}

// LakeKeyReply resolves a lake key to the blob hash it names.
type LakeKeyReply struct {
	Hash string `json:"hash"`
}

// Error is the uniform error envelope, and doubles as the typed error
// the Client returns for any coordinator refusal: Status is the HTTP
// status, Code a stable machine-readable slug, Message the human text.
// RetryAfter carries a parsed Retry-After header (zero when absent) —
// the coordinator sets it on 503s while draining or failing over, and
// the Client's retry loop honors it in place of its own backoff.
type Error struct {
	Status     int           `json:"-"`
	Code       string        `json:"code"`
	Message    string        `json:"message"`
	RetryAfter time.Duration `json:"-"`
}

// Error codes. Codes are stable API; messages are not.
const (
	CodeBadRequest  = "bad_request" // malformed body or parameters
	CodeNotFound    = "not_found"   // no such resource
	CodeConflict    = "conflict"    // duplicate result, campaign overlap, stale lease
	CodePending     = "pending"     // results requested before the sweep completed
	CodeCancelled   = "cancelled"   // resource was cancelled
	CodeFailed      = "failed"      // sweep failed server-side
	CodeInternal    = "internal"    // coordinator-side error
	CodeStaleEpoch  = "stale_epoch" // completion fenced: granted by a deposed coordinator
	CodeUnavailable = "unavailable" // coordinator draining or failing over; retry later
	// CodeIntegrityMismatch refuses a partial whose integrity checksum
	// does not match its bytes — corruption on the wire, in a journal or
	// in a lake blob. The shard is re-issued; the sender just drops its
	// copy (re-sending the same bytes can never succeed).
	CodeIntegrityMismatch = "integrity_mismatch"
	// CodeQuarantined refuses a lease to a worker whose audited results
	// diverged from the fleet majority too often. The worker should exit;
	// its results are no longer trusted.
	CodeQuarantined = "quarantined"
)

func (e *Error) Error() string {
	return fmt.Sprintf("coordinator: %s (%s, http %d)", e.Message, e.Code, e.Status)
}

// IsRefusal reports whether err is a coordinator judgment (a 4xx
// envelope) as opposed to a transport failure or server-side 5xx —
// judgments are final and must not be retried.
func IsRefusal(err error) bool {
	e, ok := err.(*Error)
	return ok && e.Status >= 400 && e.Status < 500
}

// errorBody is the envelope's wire shape.
type errorBody struct {
	Err Error `json:"error"`
}

// WriteUnavailable replies 503 + Retry-After: the draining/failing-over
// signal. Workers' retry loops sleep the hinted interval and try again,
// riding through a coordinator handoff instead of dying on a dead
// socket. retryAfter rounds up to whole seconds (the header's unit).
func WriteUnavailable(w http.ResponseWriter, retryAfter time.Duration, format string, args ...any) {
	secs := int((retryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	WriteError(w, http.StatusServiceUnavailable, CodeUnavailable, format, args...)
}

// WriteError replies with the JSON error envelope.
func WriteError(w http.ResponseWriter, status int, code, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding a struct of two strings cannot fail; ignore the writer's
	// error as net/http handlers conventionally do.
	json.NewEncoder(w).Encode(errorBody{Err: Error{Code: code, Message: fmt.Sprintf(format, args...)}})
}

// WriteJSON replies with v as JSON.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are out; nothing coherent can follow a partial body.
		return
	}
}
