package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/capi"
	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/ssresf"
)

// cutOnceTransport severs the first watch stream after its first
// successful body read — a deterministic mid-stream disconnect, unlike
// the chaos transport's whole-response resets — so the reconnect path
// (Last-Event-ID resume, duplicate suppression) is exercised on every
// run, not just when a random fault lands inside the stream.
type cutOnceTransport struct {
	base http.RoundTripper
	cut  atomic.Bool
}

func (c *cutOnceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.base.RoundTrip(req)
	if err != nil || !strings.Contains(req.URL.RawQuery, "watch=1") {
		return resp, err
	}
	if c.cut.CompareAndSwap(false, true) {
		resp.Body = &cutAfterFirstRead{rc: resp.Body}
	}
	return resp, nil
}

type cutAfterFirstRead struct {
	rc    io.ReadCloser
	reads int
}

func (b *cutAfterFirstRead) Read(p []byte) (int, error) {
	if b.reads > 0 {
		b.rc.Close()
		return 0, fmt.Errorf("injected mid-stream disconnect")
	}
	b.reads++
	return b.rc.Read(p)
}

func (b *cutAfterFirstRead) Close() error { return b.rc.Close() }

// eventRecorder collects watch events and verifies the stream contract.
type eventRecorder struct {
	mu     sync.Mutex
	events []capi.SweepEvent
}

func (r *eventRecorder) record(ev capi.SweepEvent) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

func (r *eventRecorder) snapshot() []capi.SweepEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]capi.SweepEvent(nil), r.events...)
}

// checkGapFree asserts the recorded sequence numbers are strictly
// contiguous starting at 1 — no gap, no duplicate, no reordering — the
// exactly-once delivery WatchSweep promises across reconnects.
func checkGapFree(t *testing.T, evs []capi.SweepEvent) {
	t.Helper()
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want %d (stream must be gap-free from 1)", i, ev.Seq, i+1)
		}
	}
}

// TestWatchMatchesPoll is the acceptance gate for the live watch path: a
// sweep followed over SSE — including a forced mid-stream disconnect and
// Last-Event-ID resume — reaches the same terminal state as a polling
// client, both fetch byte-identical rendered results, and that output is
// byte-identical to the uninstrumented in-process reference. The watch
// stream itself must be gap-free, opening with the submit event and
// closing with done, and the terminal status must carry the sweep's
// cost attribution block.
func TestWatchMatchesPoll(t *testing.T) {
	ec := ssresf.DefaultExperimentConfig(true)
	want := inProcessLETReference(t, ec, []int{1})
	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Minute)
	defer cancel()

	serveOut := &safeBuf{}
	url, serveErr, stop := startServe(t, serveOpts{
		shards:   2,
		leaseTTL: time.Minute,
		linger:   10 * time.Second,
	}, serveOut)

	client := capi.NewClient(url)
	reply, err := client.Submit(ctx, quickLETParams(1))
	if err != nil {
		t.Fatal(err)
	}

	// The watcher's transport cuts the first stream after one read, so
	// this test always crosses a reconnect boundary mid-sweep.
	cut := &cutOnceTransport{base: http.DefaultTransport}
	watcher := capi.NewClient(url)
	watcher.HTTP = &http.Client{Transport: cut}
	rec := &eventRecorder{}
	type watchResult struct {
		st  capi.SweepStatus
		err error
	}
	watchDone := make(chan watchResult, 1)
	go func() {
		st, err := watcher.WatchSweep(ctx, reply.Fingerprint, rec.record)
		watchDone <- watchResult{st, err}
	}()

	wOut := &safeBuf{}
	workDone := make(chan error, 1)
	go func() {
		workDone <- work(ctx, workOpts{url: url, name: "ww1", poll: 25 * time.Millisecond, out: wOut})
	}()

	stPoll, err := client.WaitSweep(ctx, reply.Fingerprint, nil)
	if err != nil {
		t.Fatalf("poll: %v\n%s", err, serveOut.String())
	}
	wr := <-watchDone
	if wr.err != nil {
		t.Fatalf("watch: %v\n%s", wr.err, serveOut.String())
	}
	if !cut.cut.Load() {
		t.Fatal("the injected mid-stream disconnect never fired")
	}

	// Same terminal verdict through both paths.
	if wr.st.State != stPoll.State || wr.st.State != capi.StateDone {
		t.Fatalf("watch ended %q, poll ended %q; want both done", wr.st.State, stPoll.State)
	}
	if wr.st.Progress.CampaignsDone != stPoll.Progress.CampaignsDone {
		t.Fatalf("watch saw %d campaigns done, poll %d", wr.st.Progress.CampaignsDone, stPoll.Progress.CampaignsDone)
	}

	// The event stream is gap-free across the reconnect, starts with the
	// submit event and ends with done.
	evs := rec.snapshot()
	checkGapFree(t, evs)
	if len(evs) < 3 || evs[0].Type != "submit" || evs[len(evs)-1].Type != "done" {
		t.Fatalf("stream shape wrong: %d events, first %q, last %q", len(evs), evs[0].Type, evs[len(evs)-1].Type)
	}

	// Cost attribution rode the terminal status: both campaigns' shards
	// accounted exactly once, with real simulation spend behind them.
	if wr.st.Cost == nil {
		t.Fatal("terminal watch status carries no cost block")
	}
	if wr.st.Cost.Shards != 4 || wr.st.Cost.InjectEvals == 0 || wr.st.Cost.InjectWallNS <= 0 {
		t.Fatalf("cost block %+v; want 4 shards with nonzero evals and wall time", wr.st.Cost)
	}

	// Byte-identity: watch-fetched == poll-fetched == uninstrumented
	// in-process reference.
	gotWatch, err := watcher.Results(ctx, reply.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	gotPoll, err := client.Results(ctx, reply.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotWatch, gotPoll) {
		t.Fatal("watch-fetched results differ from poll-fetched results")
	}
	if !bytes.Equal(gotWatch, want) {
		t.Fatalf("watched sweep output diverges from the in-process reference:\n--- got ---\n%s\n--- want ---\n%s", gotWatch, want)
	}

	if err := <-workDone; err != nil {
		t.Fatalf("worker: %v\n%s", err, wOut.String())
	}
	stop()
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v\n%s", err, serveOut.String())
	}
}

// TestFleetFederation is the metrics-federation gate: a worker pushing
// its registry on a short cadence must surface on the coordinator's
// GET /metrics/fleet with every pushed series re-labeled by worker, the
// liveness gauges accounting for it, and the per-sweep cost series
// (sweep_cost_*) attributed to the sweep it drained — while the sweep's
// own status reports the matching cost block.
func TestFleetFederation(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Minute)
	defer cancel()

	serveOut := &safeBuf{}
	url, serveErr, stop := startServe(t, serveOpts{
		shards:   2,
		leaseTTL: time.Minute,
		linger:   15 * time.Second,
	}, serveOut)

	client := capi.NewClient(url)
	reply, err := client.Submit(ctx, quickLETParams(1))
	if err != nil {
		t.Fatal(err)
	}

	wReg := obs.NewRegistry()
	wOut := &safeBuf{}
	workDone := make(chan error, 1)
	go func() {
		workDone <- work(ctx, workOpts{
			url: url, name: "fw1", poll: 25 * time.Millisecond, out: wOut,
			push: 250 * time.Millisecond, obsReg: wReg,
		})
	}()

	st, err := client.WaitSweep(ctx, reply.Fingerprint, nil)
	if err != nil {
		t.Fatalf("wait: %v\n%s", err, serveOut.String())
	}
	if st.State != capi.StateDone {
		t.Fatalf("sweep ended %q: %s", st.State, st.Error)
	}
	if st.Cost == nil || st.Cost.Shards != 4 || st.Cost.InjectEvals == 0 {
		t.Fatalf("sweep cost block %+v; want 4 shards with nonzero evals", st.Cost)
	}
	// The worker's exit hook delivers one final push; scrape after it.
	if err := <-workDone; err != nil {
		t.Fatalf("worker: %v\n%s", err, wOut.String())
	}

	sc := scrapeProm(t, url+"/metrics/fleet")
	for key, s := range sc.Series {
		if s.Name == "fleet_workers" {
			continue
		}
		if s.Labels["worker"] != "fw1" {
			t.Errorf("federated series %s not attributed to the pushing worker", key)
		}
	}
	live, okLive := sc.Value("fleet_workers", "state", "live")
	stale, okStale := sc.Value("fleet_workers", "state", "stale")
	if !okLive || !okStale || live+stale != 1 {
		t.Fatalf("fleet_workers live=%v stale=%v; want exactly one worker accounted", live, stale)
	}
	if live != 1 {
		t.Errorf("worker counted stale immediately after its final push (live=%v stale=%v)", live, stale)
	}
	if v, ok := sc.Value("fleet_pushes_total", "worker", "fw1"); !ok || v < 1 {
		t.Fatalf("fleet_pushes_total = %v, %v; want >= 1", v, ok)
	}

	// Per-sweep cost attribution, federated: the worker's executor minted
	// sweep_cost_* series labeled with this sweep's fp12, and they arrive
	// on the fleet surface carrying both the sweep and worker labels.
	fp := shard.Short(reply.Fingerprint)
	if v, ok := sc.Value("sweep_cost_shards_total", "sweep", fp, "worker", "fw1"); !ok || v != 4 {
		t.Fatalf("sweep_cost_shards_total{sweep=%q} = %v, %v; want 4", fp, v, ok)
	}
	for _, name := range []string{"sweep_cost_evals_total", "sweep_cost_shard_wall_ns_total"} {
		if v, ok := sc.Value(name, "sweep", fp, "worker", "fw1"); !ok || v <= 0 {
			t.Fatalf("%s{sweep=%q} = %v, %v; want > 0", name, fp, v, ok)
		}
	}

	stop()
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v\n%s", err, serveOut.String())
	}
}

// TestWatchSweepUnderChaos routes the watch client through a seeded
// chaos transport — dropped connections, synthesized 503s, whole-response
// resets, delays — and pins that the delivered event sequence is still
// gap-free and duplicate-free, and the terminal state matches a cleanly
// polled reference. (WatchSweep may legitimately fall back to polling if
// chaos exhausts its reconnect budget; the stream contract holds either
// way: every event delivered arrived exactly once, in order.)
func TestWatchSweepUnderChaos(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Minute)
	defer cancel()

	serveOut := &safeBuf{}
	url, serveErr, stop := startServe(t, serveOpts{
		shards:   2,
		leaseTTL: time.Minute,
		linger:   10 * time.Second,
	}, serveOut)

	client := capi.NewClient(url)
	reply, err := client.Submit(ctx, quickLETParams(1))
	if err != nil {
		t.Fatal(err)
	}

	tr := chaos.New(chaos.Config{
		Seed:     97,
		Drop:     0.15,
		Err503:   0.10,
		Reset:    0.20,
		Delay:    0.20,
		MaxDelay: 30 * time.Millisecond,
	})
	watcher := capi.NewClient(url)
	watcher.HTTP = &http.Client{Transport: tr}
	watcher.Retries = 8
	watcher.RetryBase = 10 * time.Millisecond
	watcher.RetryCap = 100 * time.Millisecond
	rec := &eventRecorder{}
	type watchResult struct {
		st  capi.SweepStatus
		err error
	}
	watchDone := make(chan watchResult, 1)
	go func() {
		st, err := watcher.WatchSweep(ctx, reply.Fingerprint, rec.record)
		watchDone <- watchResult{st, err}
	}()

	wOut := &safeBuf{}
	workDone := make(chan error, 1)
	go func() {
		workDone <- work(ctx, workOpts{url: url, name: "cw1", poll: 25 * time.Millisecond, out: wOut})
	}()

	stPoll, err := client.WaitSweep(ctx, reply.Fingerprint, nil)
	if err != nil {
		t.Fatalf("poll: %v\n%s", err, serveOut.String())
	}
	wr := <-watchDone
	if wr.err != nil {
		t.Fatalf("watch under chaos: %v\n%s", wr.err, serveOut.String())
	}
	if wr.st.State != stPoll.State || wr.st.State != capi.StateDone {
		t.Fatalf("watch ended %q, poll ended %q; want both done", wr.st.State, stPoll.State)
	}
	checkGapFree(t, rec.snapshot())

	if err := <-workDone; err != nil {
		t.Fatalf("worker: %v\n%s", err, wOut.String())
	}
	stop()
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v\n%s", err, serveOut.String())
	}
}
