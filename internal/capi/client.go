package capi

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/sweep"
)

// Client speaks the coordinator protocol. Every method takes a context
// and honors its cancellation; methods marked retrying transparently
// retry transport errors (connection refused, resets) and 5xx replies
// with jittered exponential backoff, because both mean "the coordinator
// side tripped, try again" — while any 4xx is a coordinator judgment,
// returned immediately as a typed *Error and never retried.
type Client struct {
	// BaseURL is the coordinator root, e.g. "http://host:8372".
	BaseURL string
	// HTTP overrides the transport; nil uses a per-client default with a
	// 30-second request timeout.
	HTTP *http.Client
	// Retries is the per-call attempt budget for transient failures
	// (0 = DefaultRetries, negative = no retries).
	Retries int
	// RetryBase/RetryCap tune the retry backoff (0 = defaults).
	RetryBase time.Duration
	RetryCap  time.Duration
	// Obs, when non-nil, receives request latencies
	// (capi_request_seconds, labeled by method and normalized path —
	// fingerprints collapse to {fp} so label cardinality stays bounded),
	// retry attempts (capi_retries_total) and Retry-After-honoring sleeps
	// (capi_retry_after_sleeps_total).
	Obs *obs.Registry
}

// normPath collapses resource identifiers out of a request path so metric
// labels enumerate endpoints, not fingerprints or worker names.
func normPath(path string) string {
	if i := strings.IndexByte(path, '?'); i >= 0 {
		path = path[:i]
	}
	// Lake keys are multi-segment ("golden/<fp>"), so the whole remainder
	// collapses to one placeholder.
	if rest, ok := strings.CutPrefix(path, "/v1/lake/"); ok && rest != "" {
		return "/v1/lake/{key}"
	}
	for pfx, ph := range map[string]string{
		"/v1/sweeps/":  "{fp}",
		"/v1/workers/": "{name}",
	} {
		rest, ok := strings.CutPrefix(path, pfx)
		if !ok || rest == "" {
			continue
		}
		if j := strings.IndexByte(rest, '/'); j >= 0 {
			return pfx + ph + rest[j:]
		}
		return pfx + ph
	}
	return path
}

// observe records one exchange's latency.
func (c *Client) observe(method, path string, start time.Time) {
	if c.Obs == nil {
		return
	}
	c.Obs.NewHistogram("capi_request_seconds", "Coordinator request latency.", obs.DurationBuckets,
		"method", method, "path", normPath(path)).Observe(time.Since(start).Seconds())
}

// DefaultRetries is the per-call transient-failure attempt budget.
const DefaultRetries = 5

// MaxRetryAfter caps how long the retry loop will sleep on a server's
// Retry-After hint. The header is advisory pacing, not a command: a
// hostile or buggy coordinator advertising "Retry-After: 86400" must
// not stall a worker for a day when its own backoff would have retried
// within seconds.
const MaxRetryAfter = 30 * time.Second

// NewClient returns a client for the coordinator at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{Timeout: 30 * time.Second}
}

func (c *Client) url(path string) string {
	return strings.TrimRight(c.BaseURL, "/") + path
}

// do performs one exchange. in is the request body: nil sends none, a
// string is sent verbatim as exposition text, anything else as JSON. A
// 2xx reply other than 204 fills out: *[]byte takes the raw body, any
// other non-nil out is decoded from JSON. Any error status comes back as
// a typed *Error decoded from the envelope. The response is returned with
// its body consumed, so callers can read its status and headers.
func (c *Client) do(ctx context.Context, method, path string, in, out any) (*http.Response, error) {
	var body io.Reader
	contentType := ""
	switch in := in.(type) {
	case nil:
	case string:
		body, contentType = strings.NewReader(in), obs.ContentType
	default:
		b, err := json.Marshal(in)
		if err != nil {
			return nil, fmt.Errorf("capi: encoding %s %s: %v", method, path, err)
		}
		body, contentType = bytes.NewReader(b), "application/json"
	}
	req, err := http.NewRequestWithContext(ctx, method, c.url(path), body)
	if err != nil {
		return nil, fmt.Errorf("capi: %v", err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	start := time.Now()
	resp, err := c.httpClient().Do(req)
	c.observe(method, path, start)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return resp, decodeError(resp)
	}
	switch out := out.(type) {
	case nil:
	case *[]byte:
		if *out, err = io.ReadAll(resp.Body); err != nil {
			return resp, fmt.Errorf("capi: reading %s %s reply: %v", method, path, err)
		}
	default:
		if resp.StatusCode != http.StatusNoContent {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				return resp, fmt.Errorf("capi: decoding %s %s reply: %v", method, path, err)
			}
		}
	}
	return resp, nil
}

// decodeError lifts an error reply into a typed *Error, tolerating
// non-envelope bodies (a proxy's bare text) by wrapping them verbatim.
// A Retry-After header (delay-seconds form) is parsed onto the error so
// the retry loop can honor the server's pacing.
func decodeError(resp *http.Response) error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	retryAfter := parseRetryAfter(resp.Header.Get("Retry-After"))
	var eb errorBody
	if err := json.Unmarshal(raw, &eb); err == nil && eb.Err.Code != "" {
		e := eb.Err
		e.Status = resp.StatusCode
		e.RetryAfter = retryAfter
		return &e
	}
	return &Error{
		Status:     resp.StatusCode,
		Code:       CodeInternal,
		Message:    fmt.Sprintf("%s: %s", resp.Status, bytes.TrimSpace(raw)),
		RetryAfter: retryAfter,
	}
}

// parseRetryAfter reads the delay-seconds form of a Retry-After header;
// the HTTP-date form and garbage read as zero (no hint).
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	secs, err := strconv.Atoi(strings.TrimSpace(h))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// retryable reports whether an exchange outcome is worth another
// attempt: transport failures and 5xx replies, but never a context end
// or a coordinator judgment (4xx).
func retryable(ctx context.Context, err error) bool {
	if err == nil || ctx.Err() != nil {
		return false
	}
	if e, ok := err.(*Error); ok {
		return e.Status >= 500
	}
	return true // transport-level failure
}

// retryLoop runs one exchange under the client's transient-failure
// policy: up to the attempt budget, with the configured jittered
// backoff between attempts. A 429/503 carrying Retry-After overrides the
// backoff with the server's own pacing — the coordinator says "1s"
// while draining or failing over, and sleeping less just burns attempts
// against a socket that cannot answer yet. The context deadline bounds
// total retry wall-clock: a sleep that cannot finish before the deadline
// is not taken, and the last real error is returned instead of a bare
// context error. what labels the call in the final error.
func (c *Client) retryLoop(ctx context.Context, what string, fn func() error) error {
	attempts := c.Retries
	if attempts == 0 {
		attempts = DefaultRetries
	}
	if attempts < 1 {
		attempts = 1
	}
	bo := &Backoff{Base: c.RetryBase, Cap: c.RetryCap}
	if bo.Base <= 0 {
		bo.Base = 200 * time.Millisecond
	}
	if bo.Cap <= 0 {
		bo.Cap = 5 * time.Second
	}
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			c.Obs.NewCounter("capi_retries_total", "Transient-failure retry attempts.").Inc()
			delay := bo.Next()
			if e, ok := err.(*Error); ok && e.RetryAfter > 0 && (e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable) {
				delay = e.RetryAfter
				if delay > MaxRetryAfter {
					delay = MaxRetryAfter
				}
				c.Obs.NewCounter("capi_retry_after_sleeps_total", "Retries paced by a server Retry-After header.").Inc()
			}
			if deadline, ok := ctx.Deadline(); ok && time.Until(deadline) <= delay {
				return fmt.Errorf("capi: %s: retry budget cut off by context deadline: %w", what, err)
			}
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		err = fn()
		if !retryable(ctx, err) {
			return err
		}
	}
	return fmt.Errorf("capi: %s failed after %d attempts: %w", what, attempts, err)
}

// doRetry is do with the transient-failure retry loop.
func (c *Client) doRetry(ctx context.Context, method, path string, in, out any) (*http.Response, error) {
	var resp *http.Response
	err := c.retryLoop(ctx, method+" "+path, func() error {
		var err error
		resp, err = c.do(ctx, method, path, in, out)
		return err
	})
	return resp, err
}

// LeaseOutcome classifies a successful lease exchange.
type LeaseOutcome int

const (
	// LeaseGranted: the returned lease holds a shard to execute.
	LeaseGranted LeaseOutcome = iota
	// LeaseIdle: nothing pending right now (everything leased out, later
	// campaigns still building, or no sweeps submitted yet) — poll again.
	LeaseIdle
	// LeaseDrained: every submitted sweep is terminal and the coordinator
	// is winding down — the worker should exit.
	LeaseDrained
)

// Lease asks for a shard (retrying). The outcome is only meaningful
// when err is nil; the lease is non-nil only for LeaseGranted. A bare 410
// is the protocol's "coordinator drained" signal.
func (c *Client) Lease(ctx context.Context, worker string) (*shard.Lease, LeaseOutcome, error) {
	var l shard.Lease
	resp, err := c.doRetry(ctx, http.MethodPost, "/v1/lease", LeaseRequest{Worker: worker}, &l)
	var e *Error
	if errors.As(err, &e) && e.Status == http.StatusGone {
		return nil, LeaseDrained, nil
	}
	if err != nil {
		return nil, LeaseIdle, err
	}
	if resp.StatusCode == http.StatusNoContent {
		return nil, LeaseIdle, nil
	}
	return &l, LeaseGranted, nil
}

// Complete delivers a shard result for a held lease (retrying) — a
// simulated shard may represent minutes of work, and a network blip at
// exactly the wrong moment must not throw it away. epoch echoes the
// lease's fencing token. A refusal (4xx: the shard completed elsewhere,
// a stale lease, a fenced stale-epoch duplicate) comes back as a typed
// *Error; IsRefusal distinguishes it from undeliverability.
func (c *Client) Complete(ctx context.Context, fingerprint, leaseID string, epoch uint64, p *shard.Partial) error {
	_, err := c.doRetry(ctx, http.MethodPost, "/v1/complete",
		CompleteRequest{LeaseID: leaseID, Fingerprint: fingerprint, Epoch: epoch, Partial: p}, nil)
	return err
}

// Fail reports a shard execution failure for a held lease (retrying —
// the report is what lets the coordinator bound a poison shard's
// re-issue, so it is worth delivering through a network blip). The
// coordinator requeues the shard or, past its attempt bound,
// quarantines it.
func (c *Client) Fail(ctx context.Context, fingerprint, leaseID, worker, reason string) error {
	_, err := c.doRetry(ctx, http.MethodPost, "/v1/shards/fail",
		FailRequest{LeaseID: leaseID, Fingerprint: fingerprint, Worker: worker, Reason: reason}, nil)
	return err
}

// Renew heartbeats a live lease — a single attempt, because the caller
// ticks: a transport failure is simply retried at the next tick, while
// a refusal (IsRefusal) means the lease is gone and heartbeating should
// stop (the late-completion path still delivers the result).
func (c *Client) Renew(ctx context.Context, fingerprint, leaseID string) (time.Time, error) {
	var reply RenewReply
	_, err := c.do(ctx, http.MethodPost, "/v1/renew",
		RenewRequest{LeaseID: leaseID, Fingerprint: fingerprint}, &reply)
	if err != nil {
		return time.Time{}, err
	}
	return reply.ExpiresAt, nil
}

// Submit posts a sweep description (retrying; submission is idempotent
// on the sweep fingerprint, so a retried create cannot double-run).
func (c *Client) Submit(ctx context.Context, params sweep.GridParams) (SubmitReply, error) {
	var reply SubmitReply
	_, err := c.doRetry(ctx, http.MethodPost, "/v1/sweeps", SubmitRequest{Params: params}, &reply)
	return reply, err
}

// Sweeps lists every sweep the coordinator holds (retrying).
func (c *Client) Sweeps(ctx context.Context) ([]SweepSummary, error) {
	var out []SweepSummary
	_, err := c.doRetry(ctx, http.MethodGet, "/v1/sweeps", nil, &out)
	return out, err
}

// Sweep fetches one sweep's status by fingerprint (retrying).
func (c *Client) Sweep(ctx context.Context, fingerprint string) (SweepStatus, error) {
	var out SweepStatus
	_, err := c.doRetry(ctx, http.MethodGet, "/v1/sweeps/"+fingerprint, nil, &out)
	return out, err
}

// Cancel cancels a sweep (retrying; cancellation is idempotent).
// Unopened campaigns never run; leased shards finish or expire; the
// journal stays valid.
func (c *Client) Cancel(ctx context.Context, fingerprint string) (SweepStatus, error) {
	var out SweepStatus
	_, err := c.doRetry(ctx, http.MethodDelete, "/v1/sweeps/"+fingerprint, nil, &out)
	return out, err
}

// Purge cancels a sweep AND forgets it: the coordinator drops the
// resource (subsequent GETs return 404) and eagerly deletes its
// campaigns' journal records, so a long-lived coordinator's journal does
// not accrue every sweep ever served. The returned status is the sweep's
// final state before removal. Retrying like Cancel; a retry that finds
// the sweep already gone surfaces the 404 as a *Error.
func (c *Client) Purge(ctx context.Context, fingerprint string) (SweepStatus, error) {
	var out SweepStatus
	_, err := c.doRetry(ctx, http.MethodDelete, "/v1/sweeps/"+fingerprint+"?purge=1", nil, &out)
	return out, err
}

// Results fetches a completed sweep's rendered output (retrying) —
// byte-identical to the same grid run locally. Before completion the
// coordinator refuses with CodePending; after cancellation with
// CodeCancelled.
func (c *Client) Results(ctx context.Context, fingerprint string) ([]byte, error) {
	var b []byte
	if _, err := c.doRetry(ctx, http.MethodGet, "/v1/sweeps/"+fingerprint+"/results", nil, &b); err != nil {
		return nil, err
	}
	return b, nil
}

// PushMetrics pushes one worker's metrics exposition text to the
// coordinator's federation endpoint (single attempt — a failed push is
// simply superseded by the next tick's, so retrying here would only
// deliver stale snapshots late). interval, when positive, declares the
// push cadence; the coordinator derives the worker's liveness window
// from it (3x the interval).
func (c *Client) PushMetrics(ctx context.Context, worker, text string, interval time.Duration) error {
	path := "/v1/workers/" + url.PathEscape(worker) + "/metrics"
	if interval > 0 {
		path += "?interval=" + url.QueryEscape(interval.String())
	}
	_, err := c.do(ctx, http.MethodPost, path, text, nil)
	return err
}

// LakeGet fetches the artifact-lake blob bound to key ("golden/<fp>",
// "partial/<fp>/<a>-<b>") in one request (single attempt — a miss or
// failure means "build locally", so retrying only delays the fallback).
// ok is false on a clean miss: a 404, or bytes that do not hash to the
// sha256 the reply's ETag names (see WriteBlob), so damage in flight is
// never adopted.
func (c *Client) LakeGet(ctx context.Context, key string) (data []byte, ok bool, err error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/lake/"+key, nil, &data)
	var e *Error
	if errors.As(err, &e) && e.Status == http.StatusNotFound {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	sum := sha256.Sum256(data)
	if resp.Header.Get("ETag") != strconv.Quote(hex.EncodeToString(sum[:])) {
		return nil, false, nil
	}
	return data, true, nil
}

// WaitSweep polls the sweep until it reaches a terminal state (done,
// cancelled or failed) or the context ends, with jittered backoff
// between polls. onUpdate, if non-nil, receives every observed status —
// the hook progress displays hang off.
func (c *Client) WaitSweep(ctx context.Context, fingerprint string, onUpdate func(SweepStatus)) (SweepStatus, error) {
	bo := &Backoff{Base: 300 * time.Millisecond, Cap: 10 * time.Second}
	for {
		st, err := c.Sweep(ctx, fingerprint)
		if err != nil {
			return SweepStatus{}, err
		}
		if onUpdate != nil {
			onUpdate(st)
		}
		if TerminalState(st.State) {
			return st, nil
		}
		select {
		case <-time.After(bo.Next()):
		case <-ctx.Done():
			return st, ctx.Err()
		}
	}
}
