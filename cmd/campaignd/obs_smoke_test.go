package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/capi"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/ssresf"
	"repro/internal/sweep"
)

// scrapeProm fetches a /metrics endpoint and runs it through the strict
// exposition parser, so every scrape in these tests doubles as a
// standards check.
func scrapeProm(t *testing.T, url string) *obs.Scrape {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("scraping %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scraping %s: %s\n%s", url, resp.Status, body)
	}
	sc, err := obs.ParseText(string(body))
	if err != nil {
		t.Fatalf("exposition from %s rejected by the strict parser: %v\n%s", url, err, body)
	}
	return sc
}

// TestObsSmoke is the `make obs-smoke` gate: a quick sweep drained end to
// end with metrics, tracing and the pprof debug server all enabled. The
// coordinator's /metrics must parse under the strict checker both
// mid-flight and at drain, the lease/fenced/warm-start series must be
// present from the first scrape and monotone between scrapes, the debug
// server must answer /metrics and /debug/pprof/, the exported trace must
// validate as Chrome trace_event JSON — and the rendered sweep output
// must be byte-identical to the uninstrumented in-process reference.
func TestObsSmoke(t *testing.T) {
	ec := ssresf.DefaultExperimentConfig(true)
	want := inProcessLETReference(t, ec, []int{1})
	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Minute)
	defer cancel()

	reg := obs.NewRegistry()
	tracer := obs.NewTracer()
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	serveOut := &safeBuf{}
	url, serveErr, stop := startServe(t, serveOpts{
		shards:    2,
		leaseTTL:  2 * time.Second,
		linger:    10 * time.Second,
		obsReg:    reg,
		tracer:    tracer,
		tracePath: tracePath,
	}, serveOut)

	client := capi.NewClient(url)
	reply, err := client.Submit(ctx, quickLETParams(1))
	if err != nil {
		t.Fatal(err)
	}

	// Mid-flight scrape: eager registration means the lifecycle series
	// are present (if zero) before anything has completed.
	mid := scrapeProm(t, url+"/metrics")
	for _, name := range []string{"shard_leases_total", "shard_fenced_total", "shard_speculated_total"} {
		if _, ok := mid.Value(name); !ok {
			t.Fatalf("mid-flight scrape missing %s:\n%v", name, mid.Series)
		}
	}

	wOut := &safeBuf{}
	workDone := make(chan error, 1)
	go func() {
		workDone <- work(ctx, workOpts{
			url: url, name: "ow1", poll: 25 * time.Millisecond, out: wOut,
			obsReg: reg, tracer: tracer,
		})
	}()

	if _, err := client.WaitSweep(ctx, reply.Fingerprint, nil); err != nil {
		t.Fatal(err)
	}
	got, err := client.Results(ctx, reply.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	// Determinism gate: metrics + tracing enabled, output byte-identical
	// to the uninstrumented single-process reference.
	if !bytes.Equal(got, want) {
		t.Fatalf("instrumented sweep output diverges from the bare reference:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// Drain scrape: work happened, counters moved, and every counter
	// present mid-flight is monotone.
	drain := scrapeProm(t, url+"/metrics")
	if v, ok := drain.Value("shard_leases_total"); !ok || v < 1 {
		t.Fatalf("shard_leases_total = %v, %v after a drained sweep; want >= 1", v, ok)
	}
	for _, name := range []string{"inject_warm_starts_total", "inject_evals_total"} {
		if _, ok := drain.Value(name); !ok {
			t.Fatalf("drain scrape missing worker series %s", name)
		}
	}
	for key, s := range mid.Series {
		if !isCounterSeries(s.Name) {
			continue
		}
		after, ok := drain.Series[key]
		if !ok {
			t.Fatalf("series %s present mid-flight but gone at drain", key)
		}
		if after.Value < s.Value {
			t.Fatalf("counter %s went backwards: %v -> %v", key, s.Value, after.Value)
		}
	}

	// The pprof side server exposes the same registry plus the profiler.
	dbgAddr, stopDebug, err := startDebugServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer stopDebug()
	scrapeProm(t, "http://"+dbgAddr+"/metrics")
	resp, err := http.Get("http://" + dbgAddr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof cmdline endpoint answered %s", resp.Status)
	}

	if err := <-workDone; err != nil {
		t.Fatalf("worker: %v\n%s", err, wOut.String())
	}
	stop()
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v\n%s", err, serveOut.String())
	}

	// The coordinator wrote the span journal on exit; it must be valid
	// trace_event JSON carrying the lifecycle edges of the run.
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	events, err := obs.ValidateTrace(raw)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	spans := 0
	for _, ev := range events {
		seen[ev.Name] = true
		if ev.Ph == "X" {
			spans++
		}
	}
	for _, name := range []string{"submit", "lease", "complete", "execute"} {
		if !seen[name] {
			t.Fatalf("trace has no %q event; events: %v", name, keysOf(seen))
		}
	}
	if spans == 0 {
		t.Fatal("trace contains no complete (X) spans")
	}
}

// isCounterSeries reports whether a sample name belongs to a counter
// family under this repo's naming convention (every counter ends in
// _total; histograms render as _bucket/_sum/_count).
func isCounterSeries(name string) bool {
	return len(name) > len("_total") && name[len(name)-len("_total"):] == "_total"
}

func keysOf(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestSpeculationObserved pins the straggler path's instrumentation: a
// raw lease sits on one shard of a single-campaign grid while a live
// worker drains the rest; with a tiny speculate factor the coordinator
// must re-issue the straggler's shard as a backup lease, the fleet must
// still merge the exact single-process result, and the scrape must show
// shard_speculated_total >= 1.
func TestSpeculationObserved(t *testing.T) {
	cs := e2eSpec()
	ref, err := shard.Build(cs)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run.Campaign.Run(ref.Run.Result); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	outPath := filepath.Join(dir, "result.json")
	tracePath := filepath.Join(dir, "trace.json")
	reg := obs.NewRegistry()
	serveOut := &safeBuf{}
	url, serveErr, _ := startServe(t, serveOpts{
		grid:   gridPtr(sweep.CampaignGrid(cs)),
		shards: 5,
		// Long shard leases: only speculation — never expiry — may free
		// the straggler's shard. The tiny factor fires a backup as soon
		// as one completed shard establishes a duration baseline.
		leaseTTL:  time.Minute,
		linger:    time.Second,
		queue:     shard.QueueConfig{Speculate: 0.01},
		outPath:   outPath,
		obsReg:    reg,
		tracePath: tracePath,
	}, serveOut)

	straggler := leaseRaw(t, url, "straggler")
	if straggler.Speculative {
		t.Fatalf("first lease of the grid came back speculative: %+v", straggler)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	wOut := &safeBuf{}
	workDone := make(chan error, 1)
	go func() {
		workDone <- work(ctx, workOpts{url: url, name: "sw1", poll: 25 * time.Millisecond, out: wOut, obsReg: reg})
	}()

	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("serve: %v\n%s", err, serveOut.String())
		}
	case <-ctx.Done():
		t.Fatalf("campaign never completed; serve:\n%s\nworker:\n%s", serveOut.String(), wOut.String())
	}
	if err := <-workDone; err != nil {
		t.Fatalf("worker: %v\n%s", err, wOut.String())
	}

	got := readResultJSON(t, outPath)
	if err := shard.EquivalentResults(ref.Run.Result, got); err != nil {
		t.Fatalf("speculated run diverges from single-process: %v", err)
	}

	sc, err := obs.ParseText(reg.Expose())
	if err != nil {
		t.Fatalf("exposition rejected by the strict parser: %v", err)
	}
	if v, ok := sc.Value("shard_speculated_total"); !ok || v < 1 {
		t.Fatalf("shard_speculated_total = %v, %v; want >= 1 (straggler shard %d never re-issued?)\nserve:\n%s",
			v, ok, straggler.Spec.Index, serveOut.String())
	}
	if v, ok := sc.Value("shard_leases_total"); !ok || v < 5 {
		t.Fatalf("shard_leases_total = %v, %v; want >= 5 (4 first-issue + straggler + backup)", v, ok)
	}
	// The worker side of the same story: the backup executed against the
	// worker's warm golden, so the run shows up in its cache/lease
	// narration too.
	if !bytes.Contains([]byte(wOut.String()), []byte(fmt.Sprintf("shard=%d", straggler.Spec.Index))) {
		t.Fatalf("live worker never completed the straggler's shard %d:\n%s", straggler.Spec.Index, wOut.String())
	}

	// The coordinator exported its span journal on exit; the re-issue
	// must appear there as a "speculated" instant in a valid trace.
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	events, err := obs.ValidateTrace(raw)
	if err != nil {
		t.Fatal(err)
	}
	speculated := false
	for _, ev := range events {
		if ev.Name == "speculated" {
			speculated = true
			break
		}
	}
	if !speculated {
		t.Fatalf("trace has no speculated instant across %d events", len(events))
	}
}
