package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/capi"
	"repro/internal/lake"
	"repro/internal/obs"
)

// goldenSpanCount counts "golden" (campaign build) spans in a tracer's
// journal — the fleet-wide built-exactly-once assertion rests on a lake
// fetch emitting none.
func goldenSpanCount(t *testing.T, tr *obs.Tracer) int {
	t.Helper()
	raw, err := tr.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ValidateTrace(raw)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, ev := range evs {
		if ev.Name == "golden" {
			n++
		}
	}
	return n
}

// counterValue reads one exposition series (full name + label set, e.g.
// `lake_hits_total{kind="golden"}`) off a registry; absent series read 0.
func counterValue(t *testing.T, reg *obs.Registry, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(reg.Expose(), "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("parsing series %s value %q: %v", series, rest, err)
			}
			return v
		}
	}
	return 0
}

// TestLakeGoldenSharedOnce is the fleet-wide golden-build sharing gate:
// one coordinator with an artifact lake, two lake-enabled workers, a
// 2-campaign LET grid. The coordinator builds each campaign's golden
// artifact exactly once (publishing it before any shard is leased), so
// across the whole fleet exactly len(campaigns) "golden" spans exist —
// the workers fetch instead of simulating, their lake hit counters
// prove it, and the rendered grid is byte-identical to the in-process
// reference the no-lake path also matches.
func TestLakeGoldenSharedOnce(t *testing.T) {
	socs := []int{1}
	grid, ec := sweepTestGrid(t, socs)
	want := inProcessLETReference(t, ec, socs)
	campaigns := len(grid.Spec.Items)

	dir := t.TempDir()
	outPath := filepath.Join(dir, "grid.txt")
	coordTr := obs.NewTracer()
	var serveOut bytes.Buffer
	url, serveErr, _ := startServe(t, serveOpts{
		grid:     &grid,
		shards:   2,
		lakeDir:  filepath.Join(dir, "lake"),
		leaseTTL: time.Minute,
		linger:   time.Second,
		outPath:  outPath,
		tracer:   coordTr,
	}, &serveOut)

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	regs := []*obs.Registry{obs.NewRegistry(), obs.NewRegistry()}
	trs := []*obs.Tracer{obs.NewTracer(), obs.NewTracer()}
	outs := []*bytes.Buffer{{}, {}}
	workErr := make(chan error, 2)
	for i, name := range []string{"w1", "w2"} {
		go func() {
			workErr <- work(ctx, workOpts{
				url: url, name: name, poll: 25 * time.Millisecond, lake: true,
				obsReg: regs[i], tracer: trs[i], out: outs[i],
			})
		}()
	}

	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("serve: %v\n%s", err, serveOut.String())
		}
	case <-ctx.Done():
		t.Fatalf("sweep never completed; serve output:\n%s\nw1:\n%s\nw2:\n%s",
			serveOut.String(), outs[0].String(), outs[1].String())
	}
	for i := 0; i < 2; i++ {
		if err := <-workErr; err != nil {
			t.Fatalf("worker: %v", err)
		}
	}

	// Built exactly once fleet-wide: the coordinator's builds are the
	// only golden spans anywhere; every worker adoption was a lake fetch.
	if n := goldenSpanCount(t, coordTr); n != campaigns {
		t.Fatalf("coordinator emitted %d golden spans, want %d (one per campaign)", n, campaigns)
	}
	for i, tr := range trs {
		if n := goldenSpanCount(t, tr); n != 0 {
			t.Fatalf("worker %d emitted %d golden spans, want 0 (fetch-only):\n%s", i+1, n, outs[i].String())
		}
	}
	hits := counterValue(t, regs[0], `lake_hits_total{kind="golden"}`) +
		counterValue(t, regs[1], `lake_hits_total{kind="golden"}`)
	if hits < float64(campaigns) {
		t.Fatalf("workers recorded %v golden lake hits, want >= %d", hits, campaigns)
	}

	got, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("lake-enabled sweep output diverges from in-process path:\n--- lake ---\n%s\n--- in-process ---\n%s", got, want)
	}
}

// TestLakeCrossSweepReuse is the cross-sweep memoization gate: a sweep
// drained once through a lake leaves every finished partial behind as a
// durable cache object, so a second coordinator resubmitting the same
// grid — same lake directory, fresh journal state, and NO workers at
// all — must complete entirely from the lake (seeding every shard at
// Open) and render byte-identical output. Zero golden spans on the
// second coordinator proves even the golden runs were adopted, not
// re-simulated.
func TestLakeCrossSweepReuse(t *testing.T) {
	socs := []int{1}
	grid, ec := sweepTestGrid(t, socs)
	want := inProcessLETReference(t, ec, socs)

	dir := t.TempDir()
	lakeDir := filepath.Join(dir, "lake")

	// Leg 1: drain the sweep once, populating the lake.
	out1 := filepath.Join(dir, "grid1.txt")
	var serveOut1 bytes.Buffer
	url, serveErr1, stop := startServe(t, serveOpts{
		grid:     &grid,
		shards:   2,
		lakeDir:  lakeDir,
		leaseTTL: time.Minute,
		linger:   time.Second,
		outPath:  out1,
	}, &serveOut1)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	var wOut bytes.Buffer
	if err := work(ctx, workOpts{url: url, name: "w", poll: 25 * time.Millisecond, lake: true, out: &wOut}); err != nil {
		t.Fatalf("worker: %v", err)
	}
	stop()
	if err := <-serveErr1; err != nil {
		t.Fatalf("first serve: %v\n%s", err, serveOut1.String())
	}

	// Leg 2: same lake, fresh coordinator, no journal, no workers. Any
	// shard the lake fails to answer would wait forever on a worker that
	// never comes — completion inside the timeout IS the zero
	// re-simulation assertion.
	out2 := filepath.Join(dir, "grid2.txt")
	reg2 := obs.NewRegistry()
	tr2 := obs.NewTracer()
	var serveOut2 bytes.Buffer
	_, serveErr2, _ := startServe(t, serveOpts{
		grid:     &grid,
		shards:   2,
		lakeDir:  lakeDir,
		leaseTTL: time.Minute,
		linger:   time.Second,
		outPath:  out2,
		obsReg:   reg2,
		tracer:   tr2,
	}, &serveOut2)
	select {
	case err := <-serveErr2:
		if err != nil {
			t.Fatalf("lake-resumed serve: %v\n%s", err, serveOut2.String())
		}
	case <-time.After(2 * time.Minute):
		t.Fatalf("lake-resumed serve never completed without workers:\n%s", serveOut2.String())
	}

	if n := goldenSpanCount(t, tr2); n != 0 {
		t.Fatalf("lake-resumed coordinator emitted %d golden spans, want 0 (goldens adopted from lake)", n)
	}
	if hits := counterValue(t, reg2, `lake_hits_total{kind="partial"}`); hits < 1 {
		t.Fatalf("lake-resumed coordinator recorded %v partial lake hits, want >= 1\n%s", hits, serveOut2.String())
	}

	got1, err := os.ReadFile(out1)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := os.ReadFile(out2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got1, want) {
		t.Fatalf("first sweep output diverges from in-process path:\n--- sweep ---\n%s\n--- in-process ---\n%s", got1, want)
	}
	if !bytes.Equal(got2, want) {
		t.Fatalf("lake-resumed sweep output diverges:\n--- resumed ---\n%s\n--- in-process ---\n%s", got2, want)
	}
}

// TestLakeChaosMidSweep kills the lake partway through a sweep: a
// pre-opened store is chaos-failed (every operation answers 503) the
// moment the first shard completes, and the sweep must still drain to
// byte-identical output — the lake accelerates the fleet but is never a
// correctness dependency.
func TestLakeChaosMidSweep(t *testing.T) {
	socs := []int{1}
	grid, ec := sweepTestGrid(t, socs)
	want := inProcessLETReference(t, ec, socs)

	dir := t.TempDir()
	st, err := lake.Open(filepath.Join(dir, "lake"), 0)
	if err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, "grid.txt")
	var serveOut bytes.Buffer
	url, serveErr, _ := startServe(t, serveOpts{
		grid:     &grid,
		shards:   2,
		lake:     st,
		leaseTTL: time.Minute,
		linger:   time.Second,
		outPath:  outPath,
	}, &serveOut)

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	var w1Out, w2Out bytes.Buffer
	workErr := make(chan error, 2)
	go func() {
		workErr <- work(ctx, workOpts{url: url, name: "w1", poll: 25 * time.Millisecond, lake: true, out: &w1Out})
	}()

	// Fail the lake as soon as the sweep shows real progress (first shard
	// done), then add a second worker that must cope with a dead lake
	// from its very first build.
	client := capi.NewClient(url)
	deadline := time.Now().Add(time.Minute)
	for {
		sctx, scancel := context.WithTimeout(ctx, 5*time.Second)
		status, err := client.Sweep(sctx, sfpOf(t, grid.Spec))
		scancel()
		if err == nil {
			done := 0
			for _, cp := range status.Progress.Campaigns {
				done += cp.Shards.Done
			}
			if done > 0 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep never completed a first shard:\n%s\nw1:\n%s", serveOut.String(), w1Out.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	st.Fail(true)
	go func() {
		workErr <- work(ctx, workOpts{url: url, name: "w2", poll: 25 * time.Millisecond, lake: true, out: &w2Out})
	}()

	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("serve: %v\n%s", err, serveOut.String())
		}
	case <-ctx.Done():
		t.Fatalf("sweep never completed after lake failure:\n%s\nw1:\n%s\nw2:\n%s",
			serveOut.String(), w1Out.String(), w2Out.String())
	}
	for i := 0; i < 2; i++ {
		if err := <-workErr; err != nil {
			t.Fatalf("worker: %v", err)
		}
	}

	got, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("chaos-lake sweep output diverges from in-process path:\n--- sweep ---\n%s\n--- in-process ---\n%s", got, want)
	}
}
