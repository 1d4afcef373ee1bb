package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/capi"
	"repro/internal/inject"
	"repro/internal/obs"
	"repro/internal/runstore"
	"repro/internal/shard"
	"repro/internal/ssresf"
	"repro/internal/sweep"
)

// gridPtr adapts a grid value to serveOpts' optional self-submission.
func gridPtr(g sweep.Grid) *sweep.Grid { return &g }

// e2eSpec is the small SoC1 campaign the end-to-end test distributes.
func e2eSpec() shard.CampaignSpec {
	cs := shard.SpecFromOptions(1, "memcpy", inject.DefaultOptions())
	cs.SampleFrac = 0.05
	cs.MinPer = 2
	cs.Seed = 7
	return cs
}

// startServe launches the coordinator on an ephemeral localhost port and
// returns its base URL, the channel its exit error lands on, and stop,
// which drains it the way SIGTERM does: with no shard leased out, serve
// exits at once instead of waiting out opts.linger. A test calls stop
// once it has checked everything the coordinator serves; a test that
// passes its own opts.signals drives that channel instead.
func startServe(t *testing.T, opts serveOpts, stdout io.Writer) (string, chan error, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sig := make(chan os.Signal, 1)
	if opts.signals == nil {
		opts.signals = sig
	}
	errCh := make(chan error, 1)
	go func() { errCh <- serve(opts, ln, stdout) }()
	return "http://" + ln.Addr().String(), errCh, func() { sig <- os.Interrupt }
}

// leaseRaw performs one raw lease request, retrying while the
// coordinator is unreachable or still building its first campaign (204)
// — the e2e test's stand-in for a worker that dies mid-shard.
func leaseRaw(t *testing.T, url, worker string) *shard.Lease {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		l, err := leaseOnce(url, worker)
		if err != nil {
			t.Fatal(err)
		}
		if l != nil {
			return l
		}
		if time.Now().After(deadline) {
			t.Fatal("coordinator never granted a lease")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// leaseOnce returns (nil, nil) when the request should be retried: the
// coordinator is unreachable or answered 204 (still planning, or all
// shards leased out).
func leaseOnce(url, worker string) (*shard.Lease, error) {
	body, _ := json.Marshal(capi.LeaseRequest{Worker: worker})
	resp, err := http.Post(url+"/v1/lease", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, nil
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		var l shard.Lease
		if err := json.NewDecoder(resp.Body).Decode(&l); err != nil {
			return nil, err
		}
		return &l, nil
	case http.StatusNoContent:
		return nil, nil
	default:
		return nil, fmt.Errorf("doomed worker lease: unexpected status %s", resp.Status)
	}
}

func readResultJSON(t *testing.T, path string) *inject.Result {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	res, err := inject.ReadJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestServeWorkEndToEnd drives the full coordinator/worker system over
// localhost HTTP: one worker leases a shard and dies silently (its lease
// must expire and the shard be re-issued), two live workers drain the
// queue, the coordinator journals every shard and merges a result that is
// bit-identical to the single-process campaign — and a restarted
// coordinator completes instantly from the journal alone.
func TestServeWorkEndToEnd(t *testing.T) {
	cs := e2eSpec()

	// Reference: the same campaign, single process.
	ref, err := shard.Build(cs)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run.Campaign.Run(ref.Run.Result); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	journal := filepath.Join(dir, "journal.jsonl")
	outPath := filepath.Join(dir, "result.json")
	var serveOut bytes.Buffer
	url, serveErr, _ := startServe(t, serveOpts{
		grid:     gridPtr(sweep.CampaignGrid(cs)),
		shards:   5,
		journal:  journal,
		leaseTTL: 300 * time.Millisecond,
		linger:   time.Second,
		outPath:  outPath,
	}, &serveOut)

	// A doomed worker claims a shard and is never heard from again.
	doomed := leaseRaw(t, url, "doomed")
	if doomed.Spec.End <= doomed.Spec.Start {
		t.Fatalf("doomed lease covers nothing: %+v", doomed.Spec)
	}

	// Two real workers drain the campaign; the doomed shard re-issues to
	// one of them after the lease TTL.
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	var w1Out, w2Out bytes.Buffer
	workErr := make(chan error, 2)
	go func() { workErr <- work(ctx, workOpts{url: url, name: "w1", poll: 25 * time.Millisecond, out: &w1Out}) }()
	go func() { workErr <- work(ctx, workOpts{url: url, name: "w2", poll: 25 * time.Millisecond, out: &w2Out}) }()

	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("serve: %v\n%s", err, serveOut.String())
		}
	case <-ctx.Done():
		t.Fatalf("campaign never completed; serve output:\n%s\nw1:\n%s\nw2:\n%s", serveOut.String(), w1Out.String(), w2Out.String())
	}
	for i := 0; i < 2; i++ {
		if err := <-workErr; err != nil {
			t.Fatalf("worker: %v", err)
		}
	}

	got := readResultJSON(t, outPath)
	if err := shard.EquivalentResults(ref.Run.Result, got); err != nil {
		t.Fatalf("distributed result diverges from single-process: %v", err)
	}

	// The dead worker's lease must have been re-issued: its shard's
	// injections are present in the merged result even though "doomed"
	// never posted anything.
	if len(got.Injections) != len(ref.Run.Result.Injections) {
		t.Fatalf("merged %d injections, want %d", len(got.Injections), len(ref.Run.Result.Injections))
	}
	if !bytes.Contains(w1Out.Bytes(), []byte("campaign complete")) || !bytes.Contains(w2Out.Bytes(), []byte("campaign complete")) {
		t.Fatalf("workers did not observe campaign completion:\nw1:\n%s\nw2:\n%s", w1Out.String(), w2Out.String())
	}

	// Restart the coordinator on the same journal: every shard is already
	// recorded, so it must merge and exit without any worker.
	outPath2 := filepath.Join(dir, "result2.json")
	var serveOut2 bytes.Buffer
	_, serveErr2, _ := startServe(t, serveOpts{
		grid:     gridPtr(sweep.CampaignGrid(cs)),
		shards:   5,
		journal:  journal,
		leaseTTL: 300 * time.Millisecond,
		outPath:  outPath2,
	}, &serveOut2)
	select {
	case err := <-serveErr2:
		if err != nil {
			t.Fatalf("journal-resumed serve: %v\n%s", err, serveOut2.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("journal-resumed serve never completed:\n%s", serveOut2.String())
	}
	if !bytes.Contains(serveOut2.Bytes(), []byte("journaled=5")) {
		t.Fatalf("resumed serve did not load the journal:\n%s", serveOut2.String())
	}
	got2 := readResultJSON(t, outPath2)
	if err := shard.EquivalentResults(ref.Run.Result, got2); err != nil {
		t.Fatalf("journal-resumed result diverges: %v", err)
	}
}

// sweepTestLETs keeps the e2e grids at two campaigns per benchmark.
var sweepTestLETs = []float64{1.0, 37.0}

// sweepTestGrid builds the 2-benchmark x 2-LET grid the sweep e2e tests
// drain, plus the experiment config it derives from.
func sweepTestGrid(t *testing.T, socs []int) (sweep.Grid, ssresf.ExperimentConfig) {
	t.Helper()
	ec := ssresf.DefaultExperimentConfig(true)
	grids := make([]sweep.Grid, len(socs))
	for i, soc := range socs {
		g, err := sweep.LETGrid(ec, soc, sweepTestLETs, "memcpy")
		if err != nil {
			t.Fatal(err)
		}
		grids[i] = g
	}
	return sweep.Concat("e2e-let-grid", grids...), ec
}

// inProcessLETReference renders the same grid through the classic
// in-process ssresf path — the byte-identity oracle.
func inProcessLETReference(t *testing.T, ec ssresf.ExperimentConfig, socs []int) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, soc := range socs {
		pts, err := ssresf.LETSweep(ec, soc, sweepTestLETs)
		if err != nil {
			t.Fatal(err)
		}
		ssresf.RenderLETSweep(&buf, soc, pts)
	}
	return buf.Bytes()
}

// TestServeSweepEndToEnd drives a whole experiment grid — two benchmarks
// x two LETs, four campaign fingerprints — through one coordinator and
// a small worker fleet: the journal already holds one shard from a
// previous coordinator incarnation (the "coordinator restart" leg), one
// worker leases a shard and dies silently (its shard must be re-issued),
// two live workers drain the rest of the grid from the shared lease
// pool, and the sweep-level aggregation must render byte-identically to
// the in-process ssresf drivers. A second coordinator restart with the
// complete journal must finish with no workers at all — and at no point
// may a journaled shard be re-simulated.
func TestServeSweepEndToEnd(t *testing.T) {
	socs := []int{1, 2}
	grid, ec := sweepTestGrid(t, socs)
	want := inProcessLETReference(t, ec, socs)

	dir := t.TempDir()
	journal := filepath.Join(dir, "sweep.jsonl")
	outPath := filepath.Join(dir, "grid.txt")
	outDir := filepath.Join(dir, "results")
	if err := os.Mkdir(outDir, 0o755); err != nil {
		t.Fatal(err)
	}

	// A previous coordinator incarnation journaled one shard of the first
	// campaign before crashing.
	firstCS := grid.Spec.Items[0].Campaign
	preBuilt, err := shard.Build(firstCS)
	if err != nil {
		t.Fatal(err)
	}
	preSpecs, err := shard.PlanAtMost(firstCS, 2, len(preBuilt.Jobs))
	if err != nil {
		t.Fatal(err)
	}
	prePartial, err := shard.ExecuteOn(preBuilt, preSpecs[0])
	if err != nil {
		t.Fatal(err)
	}
	store, err := runstore.Open(journal)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Append(preBuilt.Fingerprint, prePartial); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	var serveOut bytes.Buffer
	url, serveErr, _ := startServe(t, serveOpts{
		grid:     &grid,
		shards:   2,
		journal:  journal,
		leaseTTL: 600 * time.Millisecond,
		linger:   time.Second,
		outPath:  outPath,
		outDir:   outDir,
	}, &serveOut)

	// A doomed worker claims a shard and is never heard from again; with
	// no heartbeat its lease expires and the shard re-issues.
	doomed := leaseRaw(t, url, "doomed")
	if doomed.Spec.End <= doomed.Spec.Start {
		t.Fatalf("doomed lease covers nothing: %+v", doomed.Spec)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	var w1Out, w2Out bytes.Buffer
	workErr := make(chan error, 2)
	go func() { workErr <- work(ctx, workOpts{url: url, name: "w1", poll: 25 * time.Millisecond, out: &w1Out}) }()
	go func() { workErr <- work(ctx, workOpts{url: url, name: "w2", poll: 25 * time.Millisecond, out: &w2Out}) }()

	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("sweep serve: %v\n%s", err, serveOut.String())
		}
	case <-ctx.Done():
		t.Fatalf("sweep never completed; serve output:\n%s\nw1:\n%s\nw2:\n%s", serveOut.String(), w1Out.String(), w2Out.String())
	}
	for i := 0; i < 2; i++ {
		if err := <-workErr; err != nil {
			t.Fatalf("worker: %v", err)
		}
	}

	// The restarted coordinator must have loaded the prior incarnation's
	// shard...
	if !bytes.Contains(serveOut.Bytes(), []byte("journaled=1")) {
		t.Fatalf("serve did not load the pre-crash journal:\n%s", serveOut.String())
	}
	// ...and no worker may have re-simulated it. The trailing space matters:
	// shard=1 must not match shard=10.
	journaledLine := fmt.Sprintf("campaign=%.12s shard=%d ", preBuilt.Fingerprint, prePartial.Index)
	if bytes.Contains(w1Out.Bytes(), []byte(journaledLine)) || bytes.Contains(w2Out.Bytes(), []byte(journaledLine)) {
		t.Fatalf("journaled shard re-simulated by a worker:\nw1:\n%s\nw2:\n%s", w1Out.String(), w2Out.String())
	}

	// Byte-identity of the sweep-level aggregation with the in-process
	// path.
	got, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("sweep output diverges from in-process reference:\n--- sweep ---\n%s\n--- in-process ---\n%s", got, want)
	}

	// Per-campaign merged results landed in -outdir, one per key.
	for _, it := range grid.Spec.Items {
		res := readResultJSON(t, filepath.Join(outDir, it.Key+".json"))
		if len(res.Injections) == 0 {
			t.Fatalf("campaign %q result empty", it.Key)
		}
	}

	// Full coordinator restart from the now-complete journal: every shard
	// of every campaign is recorded, so the sweep must finish with no
	// worker and render the identical bytes again.
	outPath2 := filepath.Join(dir, "grid2.txt")
	var serveOut2 bytes.Buffer
	_, serveErr2, _ := startServe(t, serveOpts{
		grid:     &grid,
		shards:   2,
		journal:  journal,
		leaseTTL: 600 * time.Millisecond,
		outPath:  outPath2,
	}, &serveOut2)
	select {
	case err := <-serveErr2:
		if err != nil {
			t.Fatalf("journal-resumed sweep: %v\n%s", err, serveOut2.String())
		}
	case <-time.After(3 * time.Minute):
		t.Fatalf("journal-resumed sweep never completed:\n%s", serveOut2.String())
	}
	got2, err := os.ReadFile(outPath2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, want) {
		t.Fatalf("journal-resumed sweep output diverges:\n%s", got2)
	}
}

// TestSweepSmokeByteIdentical is the `make sweep-smoke` gate: a tiny
// two-campaign sweep (SoC1 at two LETs) served through the coordinator
// and drained by one worker must render byte-identically to the
// in-process ssresf path. It also spot-checks that sweep progress is
// reported per campaign, never mixing fingerprints.
func TestSweepSmokeByteIdentical(t *testing.T) {
	socs := []int{1}
	grid, ec := sweepTestGrid(t, socs)
	want := inProcessLETReference(t, ec, socs)

	outPath := filepath.Join(t.TempDir(), "grid.txt")
	var serveOut bytes.Buffer
	url, serveErr, stop := startServe(t, serveOpts{
		grid:     &grid,
		shards:   2,
		leaseTTL: time.Minute,
		linger:   time.Second,
		outPath:  outPath,
	}, &serveOut)

	// Progress must enumerate both campaigns with distinct fingerprints —
	// through the sweep resource API, which replaced the /v1/progress alias.
	stCtx, stCancel := context.WithTimeout(context.Background(), 30*time.Second)
	st, err := capi.NewClient(url).Sweep(stCtx, sfpOf(t, grid.Spec))
	stCancel()
	if err != nil {
		t.Fatalf("sweep status: %v", err)
	}
	if st.Progress.CampaignsTotal != 2 || len(st.Progress.Campaigns) != 2 {
		t.Fatalf("sweep progress %+v, want 2 campaigns", st.Progress)
	}
	if st.Progress.Campaigns[0].Fingerprint == st.Progress.Campaigns[1].Fingerprint {
		t.Fatal("sweep progress campaigns share a fingerprint")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	var wOut bytes.Buffer
	if err := work(ctx, workOpts{url: url, name: "w", poll: 25 * time.Millisecond, out: &wOut}); err != nil {
		t.Fatalf("worker: %v", err)
	}
	stop()
	if err := <-serveErr; err != nil {
		t.Fatalf("sweep serve: %v\n%s", err, serveOut.String())
	}
	got, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("sweep-smoke output diverges from in-process path:\n--- sweep ---\n%s\n--- in-process ---\n%s", got, want)
	}
}

// TestSweepStatusEndpoint checks the coordinator's observability
// surface: GET /v1/sweeps/{fp} reports per-campaign shard progress, the
// campaign's true fingerprint, and — once shards complete — the sweep's
// cost block.
func TestSweepStatusEndpoint(t *testing.T) {
	cs := e2eSpec()
	grid := sweep.CampaignGrid(cs)
	var out bytes.Buffer
	url, serveErr, stop := startServe(t, serveOpts{
		grid:     gridPtr(grid),
		shards:   2,
		leaseTTL: time.Minute,
		linger:   time.Second,
	}, &out)
	client := capi.NewClient(url)
	sweepFP := sfpOf(t, grid.Spec)

	// Campaigns open once built; poll until the (only) campaign's shard
	// plan is visible.
	deadline := time.Now().Add(30 * time.Second)
	var st capi.SweepStatus
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		got, err := client.Sweep(ctx, sweepFP)
		cancel()
		if err == nil {
			st = got
			if len(st.Progress.Campaigns) == 1 && st.Progress.Campaigns[0].Shards.Total == 2 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("status never showed the opened campaign (last: %+v, err %v)", st, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	cp := st.Progress.Campaigns[0]
	if cp.Shards.Pending+cp.Shards.Leased+cp.Shards.Done != 2 || cp.Done {
		t.Fatalf("fresh campaign progress %+v", cp)
	}
	if cp.Fingerprint != cfpOf(t, cs) {
		t.Fatalf("status reports fingerprint %.12s, want %.12s", cp.Fingerprint, cfpOf(t, cs))
	}
	if st.Progress.CampaignsTotal != 1 {
		t.Fatalf("singleton sweep progress %+v", st.Progress)
	}
	if st.Cost != nil {
		t.Fatalf("cost block present before any shard completed: %+v", st.Cost)
	}

	// Drain it with one worker so serve exits cleanly.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wOut bytes.Buffer
	if err := work(ctx, workOpts{url: url, name: "w", poll: 25 * time.Millisecond, out: &wOut}); err != nil {
		t.Fatalf("worker: %v", err)
	}
	stop()
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// quickLETParams is the declarative description the submit tests POST:
// a 2-campaign LET grid on one benchmark, quick config — the same grid
// sweepTestGrid builds per benchmark, so fingerprints line up with the
// in-process reference.
func quickLETParams(soc int) sweep.GridParams {
	return sweep.GridParams{Kind: "let", SoC: soc, LETs: sweepTestLETs, Workload: "memcpy", Quick: true}
}

// fleetFingerprints collects a status' campaign fingerprint set.
func fleetFingerprints(st capi.SweepStatus) map[string]bool {
	out := map[string]bool{}
	for _, c := range st.Progress.Campaigns {
		out[c.Fingerprint] = true
	}
	return out
}

// TestSubmitTwoSweepsEndToEnd is the resource-API acceptance gate: a
// coordinator started with no sweep flags at all serves two grids
// submitted concurrently over POST /v1/sweeps; a worker fleet drains
// both through the shared lease surface; each sweep's progress never
// mixes the other's campaigns; and each sweep's fetched results are
// byte-identical to the same grid's local in-process run. Submission
// idempotency and the pending-results refusal ride along.
func TestSubmitTwoSweepsEndToEnd(t *testing.T) {
	ec := ssresf.DefaultExperimentConfig(true)
	wantA := inProcessLETReference(t, ec, []int{1})
	wantB := inProcessLETReference(t, ec, []int{2})

	var serveOut bytes.Buffer
	url, serveErr, stop := startServe(t, serveOpts{
		shards:   2,
		leaseTTL: time.Minute,
		linger:   20 * time.Second,
	}, &serveOut)

	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Minute)
	defer cancel()
	client := capi.NewClient(url)

	replyA, err := client.Submit(ctx, quickLETParams(1))
	if err != nil {
		t.Fatalf("submit A: %v", err)
	}
	if !replyA.Created || replyA.Campaigns != 2 {
		t.Fatalf("submit A reply %+v, want created with 2 campaigns", replyA)
	}
	replyB, err := client.Submit(ctx, quickLETParams(2))
	if err != nil {
		t.Fatalf("submit B: %v", err)
	}
	if replyA.Fingerprint == replyB.Fingerprint {
		t.Fatal("distinct grids share a sweep fingerprint")
	}

	// Idempotency: resubmitting a live grid returns the same resource.
	again, err := client.Submit(ctx, quickLETParams(1))
	if err != nil {
		t.Fatalf("resubmit A: %v", err)
	}
	if again.Created || again.Fingerprint != replyA.Fingerprint {
		t.Fatalf("resubmit reply %+v, want existing resource %.12s", again, replyA.Fingerprint)
	}

	// Results before completion must refuse with the pending code.
	if _, err := client.Results(ctx, replyA.Fingerprint); err == nil {
		t.Fatal("results of a running sweep fetched")
	} else if ce, ok := err.(*capi.Error); !ok || ce.Code != capi.CodePending {
		t.Fatalf("premature results error %v, want code %q", err, capi.CodePending)
	}

	// The listing holds both resources.
	list, err := client.Sweeps(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 {
		t.Fatalf("listing holds %d sweeps, want 2", len(list))
	}

	var w1Out, w2Out bytes.Buffer
	workErr := make(chan error, 2)
	go func() { workErr <- work(ctx, workOpts{url: url, name: "w1", poll: 25 * time.Millisecond, out: &w1Out}) }()
	go func() { workErr <- work(ctx, workOpts{url: url, name: "w2", poll: 25 * time.Millisecond, out: &w2Out}) }()

	stA, err := client.WaitSweep(ctx, replyA.Fingerprint, nil)
	if err != nil {
		t.Fatalf("waiting on A: %v\n%s", err, serveOut.String())
	}
	stB, err := client.WaitSweep(ctx, replyB.Fingerprint, nil)
	if err != nil {
		t.Fatalf("waiting on B: %v\n%s", err, serveOut.String())
	}
	if stA.State != capi.StateDone || stB.State != capi.StateDone {
		t.Fatalf("terminal states A=%s B=%s, want done/done", stA.State, stB.State)
	}

	// Per-sweep progress never mixes campaigns across sweeps.
	fpsA, fpsB := fleetFingerprints(stA), fleetFingerprints(stB)
	if len(fpsA) != 2 || len(fpsB) != 2 {
		t.Fatalf("progress enumerates %d/%d campaigns, want 2/2", len(fpsA), len(fpsB))
	}
	for fp := range fpsA {
		if fpsB[fp] {
			t.Fatalf("campaign %.12s appears in both sweeps' progress", fp)
		}
	}
	if stA.Progress.CampaignsDone != 2 || stB.Progress.CampaignsDone != 2 {
		t.Fatalf("done counts A=%d B=%d, want 2/2", stA.Progress.CampaignsDone, stB.Progress.CampaignsDone)
	}

	// Byte-identity of both fetched results with the in-process path.
	gotA, err := client.Results(ctx, replyA.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := client.Results(ctx, replyB.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotA, wantA) {
		t.Fatalf("sweep A results diverge from in-process reference:\n--- fetched ---\n%s\n--- reference ---\n%s", gotA, wantA)
	}
	if !bytes.Equal(gotB, wantB) {
		t.Fatalf("sweep B results diverge from in-process reference:\n--- fetched ---\n%s\n--- reference ---\n%s", gotB, wantB)
	}

	// With every sweep terminal the coordinator winds down by itself and
	// the workers observe the drained signal.
	for i := 0; i < 2; i++ {
		if err := <-workErr; err != nil {
			t.Fatalf("worker: %v", err)
		}
	}
	stop()
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v\n%s", err, serveOut.String())
	}
}

// TestCancelMidFlightDeterminism pins DELETE /v1/sweeps/{fp} semantics:
// cancelling one of two live sweeps stops its leasing immediately, its
// one leased shard may still finish and deliver (journal stays valid),
// the surviving sweep drains to results byte-identical to its local
// run — and resubmitting the cancelled grid resumes from the journaled
// shard instead of re-simulating it.
func TestCancelMidFlightDeterminism(t *testing.T) {
	ec := ssresf.DefaultExperimentConfig(true)
	wantA := inProcessLETReference(t, ec, []int{1})
	wantB := inProcessLETReference(t, ec, []int{2})

	dir := t.TempDir()
	journal := filepath.Join(dir, "fleet.jsonl")
	var serveOut bytes.Buffer
	url, serveErr, stop := startServe(t, serveOpts{
		shards:   2,
		journal:  journal,
		leaseTTL: time.Minute,
		linger:   20 * time.Second,
	}, &serveOut)

	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Minute)
	defer cancel()
	client := capi.NewClient(url)

	// Sweep A is alone on the coordinator when the slow worker leases, so
	// the held shard is certainly A's.
	replyA, err := client.Submit(ctx, quickLETParams(1))
	if err != nil {
		t.Fatal(err)
	}
	held := leaseRaw(t, url, "slow-worker")
	stA, err := client.Sweep(ctx, replyA.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if !fleetFingerprints(stA)[held.Spec.Fingerprint] {
		t.Fatalf("first lease %.12s is not a campaign of sweep A", held.Spec.Fingerprint)
	}
	replyB, err := client.Submit(ctx, quickLETParams(2))
	if err != nil {
		t.Fatal(err)
	}

	// Cancel A while that shard is leased out.
	stCancel, err := client.Cancel(ctx, replyA.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if stCancel.State != capi.StateCancelled {
		t.Fatalf("cancel reply state %q", stCancel.State)
	}
	if _, err := client.Results(ctx, replyA.Fingerprint); err == nil || !capi.IsRefusal(err) {
		t.Fatalf("cancelled sweep's results fetch: %v, want a cancelled refusal", err)
	}

	// The fleet drains B; none of A's shards may be handed out anymore.
	var wOut bytes.Buffer
	workDone := make(chan error, 1)
	go func() { workDone <- work(ctx, workOpts{url: url, name: "w1", poll: 25 * time.Millisecond, out: &wOut}) }()

	// The slow worker finishes its cancelled shard mid-flight: the
	// completion is still accepted and journaled.
	b, err := shard.Build(held.Spec.Campaign)
	if err != nil {
		t.Fatal(err)
	}
	p, err := shard.ExecuteOn(b, held.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Complete(ctx, held.Spec.Fingerprint, held.ID, held.Epoch, p); err != nil {
		t.Fatalf("completion of a cancelled sweep's leased shard refused: %v", err)
	}

	stB, err := client.WaitSweep(ctx, replyB.Fingerprint, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stB.State != capi.StateDone {
		t.Fatalf("sweep B ended %q: %s", stB.State, stB.Error)
	}
	gotB, err := client.Results(ctx, replyB.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotB, wantB) {
		t.Fatalf("surviving sweep's results diverge from its local run:\n--- fetched ---\n%s\n--- reference ---\n%s", gotB, wantB)
	}
	// With A cancelled and B done the coordinator reads as drained, so
	// the worker observes 410 and exits — having executed nothing of A.
	if err := <-workDone; err != nil {
		t.Fatalf("worker: %v", err)
	}
	for fp := range fleetFingerprints(stA) {
		if bytes.Contains(wOut.Bytes(), []byte(fmt.Sprintf("%.12s", fp))) {
			t.Fatalf("worker executed a shard of the cancelled sweep:\n%s", wOut.String())
		}
	}

	// Resubmitting the cancelled grid (within the linger window) revives
	// the coordinator, replaces the cancelled run and resumes from the
	// journal: the mid-flight completion above must not re-simulate.
	replyA2, err := client.Submit(ctx, quickLETParams(1))
	if err != nil {
		t.Fatal(err)
	}
	if !replyA2.Created || replyA2.Fingerprint != replyA.Fingerprint {
		t.Fatalf("resubmit after cancel: %+v, want a fresh run of %.12s", replyA2, replyA.Fingerprint)
	}
	w2Out := &safeBuf{}
	workDone2 := make(chan error, 1)
	go func() {
		workDone2 <- work(ctx, workOpts{url: url, name: "w2", poll: 25 * time.Millisecond, out: w2Out})
	}()
	stA2, err := client.WaitSweep(ctx, replyA2.Fingerprint, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stA2.State != capi.StateDone {
		t.Fatalf("resubmitted sweep ended %q: %s", stA2.State, stA2.Error)
	}
	gotA, err := client.Results(ctx, replyA2.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotA, wantA) {
		t.Fatalf("resubmitted sweep's results diverge:\n--- fetched ---\n%s\n--- reference ---\n%s", gotA, wantA)
	}
	if err := <-workDone2; err != nil {
		t.Fatalf("worker 2: %v", err)
	}
	journaledLine := fmt.Sprintf("campaign=%.12s shard=%d ", held.Spec.Fingerprint, held.Spec.Index)
	if bytes.Contains([]byte(w2Out.String()), []byte(journaledLine)) {
		t.Fatalf("journaled shard re-simulated after resubmission:\n%s", w2Out.String())
	}
	stop()
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v\n%s", err, serveOut.String())
	}
}

// TestAPISubmitSmoke is the `make sweep-smoke` API leg: an empty
// coordinator (started with no sweep flags), one submitted -quick
// 2-campaign grid, one worker — and the fetched results must be
// byte-identical to the same grid run through the socfault local sweep
// path (sweep.RunLocal + Grid.Render, exactly what `socfault -sweep`
// executes).
func TestAPISubmitSmoke(t *testing.T) {
	params := quickLETParams(1)
	grid, err := params.Grid()
	if err != nil {
		t.Fatal(err)
	}
	localResults, err := sweep.RunLocal(grid.Spec, sweep.LocalOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := grid.Render(&want, localResults); err != nil {
		t.Fatal(err)
	}

	var serveOut bytes.Buffer
	url, serveErr, stop := startServe(t, serveOpts{
		shards:   2,
		leaseTTL: time.Minute,
		linger:   10 * time.Second,
	}, &serveOut)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	client := capi.NewClient(url)
	reply, err := client.Submit(ctx, params)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	var wOut bytes.Buffer
	workDone := make(chan error, 1)
	go func() { workDone <- work(ctx, workOpts{url: url, name: "w", poll: 25 * time.Millisecond, out: &wOut}) }()

	st, err := client.WaitSweep(ctx, reply.Fingerprint, nil)
	if err != nil {
		t.Fatalf("watch: %v\n%s", err, serveOut.String())
	}
	if st.State != capi.StateDone {
		t.Fatalf("sweep ended %q: %s", st.State, st.Error)
	}
	got, err := client.Results(ctx, reply.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("fetched results diverge from the local -sweep run:\n--- fetched ---\n%s\n--- local ---\n%s", got, want.String())
	}
	if err := <-workDone; err != nil {
		t.Fatalf("worker: %v", err)
	}
	stop()
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v\n%s", err, serveOut.String())
	}
}

// TestPurgeSweepDropsResourceAndJournal covers journal compaction for
// long-lived coordinators: a sweep that completes gets its journal
// records marked terminal (so the next Open compacts them away), and
// DELETE /v1/sweeps/{fp}?purge=1 goes further — the resource leaves the
// registry (GETs 404) and the records leave the disk before the reply.
func TestPurgeSweepDropsResourceAndJournal(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "grid.jsonl")
	params := quickLETParams(1)
	reg := obs.NewRegistry()
	var serveOut bytes.Buffer
	url, serveErr, stop := startServe(t, serveOpts{
		shards:   2,
		journal:  journal,
		leaseTTL: time.Minute,
		linger:   10 * time.Second,
		obsReg:   reg,
	}, &serveOut)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	client := capi.NewClient(url)
	reply, err := client.Submit(ctx, params)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var wOut bytes.Buffer
	workDone := make(chan error, 1)
	go func() { workDone <- work(ctx, workOpts{url: url, name: "w", poll: 25 * time.Millisecond, out: &wOut}) }()
	st, err := client.WaitSweep(ctx, reply.Fingerprint, nil)
	if err != nil {
		t.Fatalf("watch: %v\n%s", err, serveOut.String())
	}
	if st.State != capi.StateDone {
		t.Fatalf("sweep ended %q: %s", st.State, st.Error)
	}

	// Completion marked the sweep's records terminal: the file still holds
	// them physically, but no load will ever resume them.
	raw, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 {
		t.Fatal("journal is empty before purge — nothing was ever recorded")
	}
	loaded, _, err := runstore.LoadAll(journal)
	if err != nil {
		t.Fatal(err)
	}
	for fp := range fleetFingerprints(st) {
		if len(loaded[fp]) != 0 {
			t.Fatalf("campaign %.12s still loads %d journaled shards after its sweep completed", fp, len(loaded[fp]))
		}
	}

	// Before the purge, the sweep's registered gauges are on the scrape,
	// labeled with its fp12.
	fp := shard.Short(reply.Fingerprint)
	pre := scrapeProm(t, url+"/metrics")
	if _, ok := pre.Value("sweep_campaigns_total", "sweep", fp); !ok {
		t.Fatalf("per-sweep gauges missing before purge:\n%v", pre.Series)
	}

	stPurge, err := client.Purge(ctx, reply.Fingerprint)
	if err != nil {
		t.Fatalf("purge: %v", err)
	}
	if stPurge.State != capi.StateDone {
		t.Fatalf("purge reported state %q, want done", stPurge.State)
	}
	if _, err := client.Sweep(ctx, reply.Fingerprint); err == nil {
		t.Fatal("purged sweep still answers GET /v1/sweeps/{fp}")
	} else if apiErr, ok := err.(*capi.Error); !ok || apiErr.Code != capi.CodeNotFound {
		t.Fatalf("purged sweep GET returned %v, want a %s API error", err, capi.CodeNotFound)
	}
	raw, err = os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 0 {
		t.Fatalf("journal still holds %d bytes after purge:\n%s", len(raw), raw)
	}

	// The purge also unregistered the sweep's gauges: a long-lived
	// coordinator's label cardinality stays bounded by its live sweeps,
	// not by everything it ever served.
	post := scrapeProm(t, url+"/metrics")
	for key, s := range post.Series {
		if s.Labels["sweep"] == fp {
			t.Errorf("series %s still on the scrape after purge", key)
		}
	}

	if err := <-workDone; err != nil {
		t.Fatalf("worker: %v", err)
	}
	stop()
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v\n%s", err, serveOut.String())
	}
}

// TestTerminalMarkerProtectsSharedCampaigns: a completed API sweep must
// not mark terminal (nor purge) the records of campaigns it shares with
// the exempt self-submitted sweep — whose journal is its recovery
// artifact — while still dropping the campaigns only it served.
func TestTerminalMarkerProtectsSharedCampaigns(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "j.jsonl")
	store, err := runstore.Open(journal)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	g := newRegistry(serveOpts{shards: 1, leaseTTL: time.Minute}, 0, store, shard.MemPartials{}, &syncWriter{w: io.Discard})

	specFor := func(seed uint64) shard.CampaignSpec {
		cs := e2eSpec()
		cs.Seed = seed
		return cs
	}
	csA, csB, csC := specFor(1), specFor(2), specFor(3)
	mkRun := func(name string, specs ...shard.CampaignSpec) *sweepRun {
		var items []sweep.Item
		for i, cs := range specs {
			items = append(items, sweep.Item{Key: fmt.Sprintf("%s-%d", name, i), Campaign: cs})
		}
		var cfps []string
		for _, cs := range specs {
			cfps = append(cfps, cfpOf(t, cs))
		}
		return &sweepRun{grid: sweep.Grid{Spec: sweep.SweepSpec{Name: name, Items: items}}, cfps: cfps, state: capi.StateDone}
	}
	initial := mkRun("initial", csA, csB) // self-submitted batch job
	api := mkRun("api", csB, csC)         // later API sweep sharing csB
	g.initial = initial
	g.byCamp[cfpOf(t, csA)] = initial
	g.byCamp[cfpOf(t, csB)] = api // api took the shared campaign over
	g.byCamp[cfpOf(t, csC)] = api
	for _, cs := range []shard.CampaignSpec{csA, csB, csC} {
		if err := store.Append(cfpOf(t, cs), stubSpecPartial()); err != nil {
			t.Fatal(err)
		}
	}

	g.markJournalTerminal(api)
	loaded, _, err := runstore.LoadAll(journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded[cfpOf(t, csA)]) != 1 || len(loaded[cfpOf(t, csB)]) != 1 {
		t.Fatalf("marker killed records shared with the initial sweep: %v", loaded)
	}
	if len(loaded[cfpOf(t, csC)]) != 0 {
		t.Fatal("the API-only campaign's records survived its terminal marker")
	}
}

// cfpOf computes a campaign fingerprint, failing the test on error.
func cfpOf(t *testing.T, cs shard.CampaignSpec) string {
	t.Helper()
	fp, err := cs.Fingerprint()
	if err != nil {
		t.Fatalf("campaign fingerprint: %v", err)
	}
	return fp
}

// sfpOf computes a sweep fingerprint, failing the test on error.
func sfpOf(t *testing.T, ss sweep.SweepSpec) string {
	t.Helper()
	fp, err := ss.Fingerprint()
	if err != nil {
		t.Fatalf("sweep fingerprint: %v", err)
	}
	return fp
}

// stubSpecPartial is a minimal journalable shard record.
func stubSpecPartial() *shard.Partial {
	return &shard.Partial{Index: 0, Start: 0, End: 1, Injections: []inject.Injection{{CellID: 1, Path: "stub"}}}
}
