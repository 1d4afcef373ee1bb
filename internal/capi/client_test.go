package capi

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/shard"
)

// fastClient returns a client for url whose retry backoff is fast
// enough for tests.
func fastClient(url string) *Client {
	c := NewClient(url)
	c.RetryBase = 5 * time.Millisecond
	c.RetryCap = 20 * time.Millisecond
	return c
}

// TestBackoffShape pins the schedule: exponential growth from Base,
// capped at Cap, each delay jittered within [d/2, d], and Reset
// returning to the first window.
func TestBackoffShape(t *testing.T) {
	b := &Backoff{Base: 100 * time.Millisecond, Cap: 800 * time.Millisecond, rnd: rand.New(rand.NewSource(1))}
	wantFull := []time.Duration{100, 200, 400, 800, 800, 800} // ms, pre-jitter
	for i, w := range wantFull {
		full := w * time.Millisecond
		got := b.Next()
		if got < full/2 || got > full {
			t.Fatalf("delay %d: got %v, want within [%v, %v]", i, got, full/2, full)
		}
	}
	b.Reset()
	if got := b.Next(); got < 50*time.Millisecond || got > 100*time.Millisecond {
		t.Fatalf("post-Reset delay %v, want within the first window again", got)
	}
	// The jitter must actually vary: a fleet polling in lockstep is the
	// bug this type exists to prevent.
	seen := map[time.Duration]bool{}
	for i := 0; i < 32; i++ {
		b.Reset()
		seen[b.Next()] = true
	}
	if len(seen) < 2 {
		t.Fatal("backoff produced identical delays across 32 draws; jitter is dead")
	}
}

// TestBackoffZeroValue: the zero value must be usable with the
// documented defaults.
func TestBackoffZeroValue(t *testing.T) {
	var b Backoff
	d := b.Next()
	if d < DefaultBase/2 || d > DefaultBase {
		t.Fatalf("zero-value first delay %v, want within [%v, %v]", d, DefaultBase/2, DefaultBase)
	}
}

// TestClientRetriesTransient5xx: a coordinator tripping over itself (a
// proxy restart, overload) must be retried, and the call succeed once
// the server recovers.
func TestClientRetriesTransient5xx(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			WriteError(w, http.StatusInternalServerError, CodeInternal, "transient")
			return
		}
		WriteJSON(w, []SweepSummary{{Fingerprint: "abc", State: StateRunning}})
	}))
	defer srv.Close()
	got, err := fastClient(srv.URL).Sweeps(context.Background())
	if err != nil {
		t.Fatalf("call failed despite recovery: %v", err)
	}
	if len(got) != 1 || got[0].Fingerprint != "abc" {
		t.Fatalf("reply lost through retries: %+v", got)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("server saw %d calls, want 2 failures + 1 success", n)
	}
}

// TestClientConnectionRefusedExhaustsRetries: with nothing listening,
// the client must retry and then fail with the attempt count, not hang.
func TestClientConnectionRefusedExhaustsRetries(t *testing.T) {
	// Grab a port that is certainly closed.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	url := srv.URL
	srv.Close()
	c := fastClient(url)
	c.Retries = 3
	start := time.Now()
	_, _, err := c.Lease(context.Background(), "w")
	if err == nil {
		t.Fatal("lease against a closed port succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("3 fast retries took %v", elapsed)
	}
}

// TestClientContextCancellationMidLease: cancelling the context while
// the coordinator sits on the request must abort promptly with the
// context's error, not wait out the HTTP timeout or retry budget.
func TestClientContextCancellationMidLease(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer srv.Close()
	// Runs before srv.Close: the handler must unblock first, because the
	// server does not cancel r.Context() while the request body sits
	// unread.
	defer close(release)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, _, err := fastClient(srv.URL).Lease(ctx, "w")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v to propagate", elapsed)
	}
}

// TestClientRefusalNotRetried: a 4xx is a coordinator judgment — final,
// typed, and never retried (retrying cannot change the verdict).
func TestClientRefusalNotRetried(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		WriteError(w, http.StatusConflict, CodeConflict, "shard 3 already completed elsewhere")
	}))
	defer srv.Close()
	err := fastClient(srv.URL).Complete(context.Background(), "fp", "lease-1", 0, &shard.Partial{Index: 3})
	if err == nil {
		t.Fatal("refused completion reported success")
	}
	if !IsRefusal(err) {
		t.Fatalf("409 not surfaced as a refusal: %v", err)
	}
	var ce *Error
	if !errors.As(err, &ce) || ce.Code != CodeConflict || ce.Status != http.StatusConflict {
		t.Fatalf("envelope lost: %#v", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("refusal retried: server saw %d calls", n)
	}
}

// TestDecodeErrorToleratesBareBody: a proxy's non-envelope error text
// must still come back as a typed *Error carrying the status.
func TestDecodeErrorToleratesBareBody(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "bad gateway", http.StatusBadGateway)
	}))
	defer srv.Close()
	c := fastClient(srv.URL)
	c.Retries = -1 // single attempt; we inspect the raw error
	_, err := c.Sweep(context.Background(), "abc")
	var ce *Error
	if !errors.As(err, &ce) || ce.Status != http.StatusBadGateway {
		t.Fatalf("bare 502 body not lifted into *Error: %v", err)
	}
}

// TestLeaseOutcomes maps the protocol's non-200 lease statuses onto the
// typed outcomes.
func TestLeaseOutcomes(t *testing.T) {
	status := atomic.Int64{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(int(status.Load()))
	}))
	defer srv.Close()
	c := fastClient(srv.URL)
	status.Store(http.StatusNoContent)
	if _, got, err := c.Lease(context.Background(), "w"); err != nil || got != LeaseIdle {
		t.Fatalf("204: outcome %v err %v, want LeaseIdle", got, err)
	}
	status.Store(http.StatusGone)
	if _, got, err := c.Lease(context.Background(), "w"); err != nil || got != LeaseDrained {
		t.Fatalf("410: outcome %v err %v, want LeaseDrained", got, err)
	}
}

// TestClientHonorsRetryAfter: a 503 carrying Retry-After paces the retry
// loop — the client sleeps the server's hint, not its own (here much
// shorter) backoff, and succeeds once the coordinator is back.
func TestClientHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			WriteUnavailable(w, time.Second, "draining")
			return
		}
		WriteJSON(w, []SweepSummary{{Fingerprint: "abc", State: StateRunning}})
	}))
	defer srv.Close()
	start := time.Now()
	if _, err := fastClient(srv.URL).Sweeps(context.Background()); err != nil {
		t.Fatalf("call failed despite recovery: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 900*time.Millisecond {
		t.Fatalf("retry slept only %v; the 1s Retry-After hint was ignored", elapsed)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("server saw %d calls, want exactly 2", n)
	}
}

// TestClientRetryBoundedByDeadline: against a coordinator that keeps
// answering 503 + Retry-After, the retry loop must give up before a
// sleep that cannot finish within the context deadline — total retry
// wall-clock is bounded, and the last coordinator error (not a bare
// context error) is what surfaces.
func TestClientRetryBoundedByDeadline(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteUnavailable(w, 5*time.Second, "failing over")
	}))
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := fastClient(srv.URL).Sweeps(ctx)
	if err == nil {
		t.Fatal("call against a permanently-503 coordinator succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("retry loop ran %v past a 300ms deadline", elapsed)
	}
	var ce *Error
	if !errors.As(err, &ce) || ce.Status != http.StatusServiceUnavailable || ce.Code != CodeUnavailable {
		t.Fatalf("last coordinator error lost: %v", err)
	}
	if ce.RetryAfter != 5*time.Second {
		t.Fatalf("Retry-After hint parsed as %v, want 5s", ce.RetryAfter)
	}
}

// TestClientClampsHostileRetryAfter: a coordinator advertising an
// absurd Retry-After ("come back tomorrow") must not park the worker
// for the advertised interval — the hint is clamped to MaxRetryAfter.
// The probe: under a deadline comfortably above the clamp but far below
// the hint, a clamped client enters the (cancellable) sleep, while an
// unclamped one would refuse immediately with a deadline-cut-off error.
// Cancelling mid-sleep distinguishes the two without waiting out either.
func TestClientClampsHostileRetryAfter(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteUnavailable(w, 24*time.Hour, "hostile pacing")
	}))
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := fastClient(srv.URL).Sweeps(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled: the clamped retry sleep was never entered", err)
	}
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond || elapsed > MaxRetryAfter {
		t.Fatalf("retry slept %v, want a cancellable sleep of at most MaxRetryAfter", elapsed)
	}
}

// TestNormPath pins the metric-label path normalization: fingerprints,
// worker names and lake keys collapse to placeholders so
// capi_request_seconds enumerates endpoints, never identities, and query
// strings are
// stripped (the ?watch=1 stream shares its resource's label).
func TestNormPath(t *testing.T) {
	cases := map[string]string{
		"/v1/lease":                             "/v1/lease",
		"/v1/sweeps":                            "/v1/sweeps",
		"/v1/sweeps/abc123def456":               "/v1/sweeps/{fp}",
		"/v1/sweeps/abc123def456?watch=1":       "/v1/sweeps/{fp}",
		"/v1/sweeps/abc123def456/results":       "/v1/sweeps/{fp}/results",
		"/v1/workers/w-07/metrics":              "/v1/workers/{name}/metrics",
		"/v1/workers/w%2F7/metrics?interval=5s": "/v1/workers/{name}/metrics",
		"/v1/lake/golden/abc123def456":          "/v1/lake/{key}",
		"/v1/lake/partial/abc123def456/0-4":     "/v1/lake/{key}",
	}
	for in, want := range cases {
		if got := normPath(in); got != want {
			t.Errorf("normPath(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestPushMetricsSingleAttempt pins that a metrics push is
// fire-and-forget: a 500 reply surfaces as an error after exactly one
// attempt (the next tick's push supersedes it), and the request carries
// the worker name, interval, and exposition body verbatim.
func TestPushMetricsSingleAttempt(t *testing.T) {
	var attempts atomic.Int32
	var gotPath, gotQuery, gotBody string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		gotPath = r.URL.Path
		gotQuery = r.URL.RawQuery
		b, _ := io.ReadAll(r.Body)
		gotBody = string(b)
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer srv.Close()

	c := fastClient(srv.URL)
	err := c.PushMetrics(context.Background(), "w1", "# TYPE up gauge\nup 1\n", 5*time.Second)
	if err == nil {
		t.Fatal("push against a 500 endpoint succeeded")
	}
	if n := attempts.Load(); n != 1 {
		t.Fatalf("push made %d attempts, want exactly 1", n)
	}
	if gotPath != "/v1/workers/w1/metrics" || gotQuery != "interval=5s" {
		t.Fatalf("push hit %s?%s", gotPath, gotQuery)
	}
	if gotBody != "# TYPE up gauge\nup 1\n" {
		t.Fatalf("push body %q", gotBody)
	}
}
