package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/capi"
	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/runstore"
	"repro/internal/shard"
	"repro/internal/ssresf"
	"repro/internal/sweep"
)

// TestIntegritySmoke is the `make integrity-smoke` acceptance gate: a
// quick grid drained by a hostile fleet. One worker's wire corrupts
// most of its completion payloads in flight (every one must be refused
// with integrity_mismatch and re-issued), one worker computes wrong
// results with self-consistent checksums (the audit vote must outvote
// and quarantine it), one worker is honest. The faulty worker runs alone
// until it has completed workerStrikeThreshold shards, so the audits of
// its own results alone are enough votes to quarantine it, whichever
// shards the others lease afterwards. The merged grid must come
// out byte-identical to the clean in-process reference, and the
// observability surface must show the whole story: integrity rejects,
// audit divergences, and fleet_workers{state="quarantined"}.
//
// The scenario runs with and without the artifact lake. With it, every
// audit must still re-simulate (a stored result must never stand in for
// a vote), and the lake must end up holding the audited majority: a
// fresh coordinator on the same lake, with no workers, completes the
// grid from it byte-identically.
func TestIntegritySmoke(t *testing.T) {
	for _, lakeOn := range []bool{false, true} {
		name := "lake=off"
		if lakeOn {
			name = "lake=on"
		}
		t.Run(name, func(t *testing.T) { integritySmoke(t, lakeOn) })
	}
}

func integritySmoke(t *testing.T, lakeOn bool) {
	var lakeDir string
	if lakeOn {
		lakeDir = filepath.Join(t.TempDir(), "lake")
	}
	ec := ssresf.DefaultExperimentConfig(true)
	want := inProcessLETReference(t, ec, []int{1})
	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Minute)
	defer cancel()

	reg := obs.NewRegistry()
	serveOut := &safeBuf{}
	// Unbounded attempts: the corrupting wire burns a lease per refused
	// completion, and that churn must never quarantine the shard itself.
	// Long shard leases keep the audit repeat-voter window closed for the
	// whole run; speculation off keeps completions single-sourced so every
	// corrupt fault maps to one refused POST.
	url, serveErr, stop := startServe(t, serveOpts{
		shards:   2,
		leaseTTL: time.Minute,
		linger:   15 * time.Second,
		queue:    shard.QueueConfig{AuditFrac: 1},
		obsReg:   reg,
		lakeDir:  lakeDir,
	}, serveOut)

	client := capi.NewClient(url)
	reply, err := client.Submit(ctx, quickLETParams(1))
	if err != nil {
		t.Fatal(err)
	}

	// Worker "wire": an honest executor behind a wire that flips a digit
	// inside 90% of its completion payloads.
	corruptTr := chaos.New(chaos.Config{Seed: 7, Corrupt: 0.9, CorruptPath: "/v1/complete"})
	corruptTr.SetObs(reg)
	corruptClient := capi.NewClient(url)
	corruptClient.HTTP = &http.Client{Transport: corruptTr, Timeout: 30 * time.Second}
	corruptClient.Retries = 8
	corruptClient.RetryBase = 10 * time.Millisecond
	corruptClient.RetryCap = 100 * time.Millisecond
	corruptClient.Obs = reg

	// Worker "faulty": computes a wrong verdict on every shard and stamps
	// it — the checksum is self-consistent, so only audit re-execution on
	// another worker can catch it.
	tamper := func(p *shard.Partial) {
		if len(p.Injections) > 0 {
			p.Injections[0].TimePS += 1000
		}
		p.Stamp()
	}

	wireOut, faultyOut, cleanOut := &safeBuf{}, &safeBuf{}, &safeBuf{}
	wireErr := make(chan error, 1)
	faultyErr := make(chan error, 1)
	cleanErr := make(chan error, 1)
	go func() {
		faultyErr <- work(ctx, workOpts{url: url, name: "int-faulty", poll: 25 * time.Millisecond,
			out: faultyOut, tamper: tamper, obsReg: reg, lake: lakeOn})
	}()
	for strings.Count(faultyOut.String(), "shard done") < workerStrikeThreshold {
		select {
		case err := <-faultyErr:
			t.Fatalf("faulty worker exited before completing %d shards: %v\n%s", workerStrikeThreshold, err, faultyOut.String())
		case <-ctx.Done():
			t.Fatalf("faulty worker did not complete %d shards: %v\nserve:\n%s", workerStrikeThreshold, ctx.Err(), serveOut.String())
		case <-time.After(10 * time.Millisecond):
		}
	}
	go func() {
		wireErr <- work(ctx, workOpts{url: url, name: "int-wire", poll: 25 * time.Millisecond,
			out: wireOut, client: corruptClient, obsReg: reg, lake: lakeOn})
	}()
	go func() {
		cleanErr <- work(ctx, workOpts{url: url, name: "int-clean", poll: 25 * time.Millisecond,
			out: cleanOut, obsReg: reg, lake: lakeOn})
	}()

	st, err := client.WaitSweep(ctx, reply.Fingerprint, nil)
	if err != nil {
		t.Fatalf("waiting on sweep: %v\nserve:\n%s", err, serveOut.String())
	}
	if st.State != capi.StateDone {
		t.Fatalf("sweep ended %q (%s), want done\nserve:\n%s", st.State, st.Error, serveOut.String())
	}

	// Byte-identity under fire: corrupted partials refused, tampered
	// partials outvoted and replaced — the rendered grid must match the
	// clean single-process reference exactly.
	got, err := client.Results(ctx, reply.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("integrity-smoke output diverges from clean reference:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// The faulty worker was quarantined mid-sweep and must exit with the
	// health verdict, not drain normally.
	if err := <-faultyErr; err == nil || !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("faulty worker exit = %v, want quarantine refusal\nfaulty:\n%s\nserve:\n%s",
			err, faultyOut.String(), serveOut.String())
	}
	if !strings.Contains(serveOut.String(), "worker quarantined after repeated audit divergence") {
		t.Fatalf("coordinator never logged the worker quarantine:\n%s", serveOut.String())
	}

	// fleet_workers{state="quarantined"} counts it while the coordinator
	// still serves (linger window).
	resp, err := http.Get(url + "/metrics/fleet")
	if err != nil {
		t.Fatal(err)
	}
	fleetBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(fleetBody), `fleet_workers{state="quarantined"} 1`) {
		t.Fatalf("fleet exposition does not count the quarantined worker:\n%s", fleetBody)
	}

	// The scrape tells the rest: corruption fired, every corrupted POST
	// was refused on checksum (never accepted — byte-identity above is
	// the proof), and at least one audit caught a divergence.
	sc, err := obs.ParseText(reg.Expose())
	if err != nil {
		t.Fatalf("exposition rejected by the strict parser: %v", err)
	}
	corrupts := corruptTr.Stats().Corrupts
	if corrupts < 1 {
		t.Fatalf("chaos corrupt fault never fired (%d requests)", corruptTr.Stats().Requests)
	}
	if v, ok := sc.Value("shard_integrity_rejects_total"); !ok || v < 1 {
		t.Fatalf("shard_integrity_rejects_total = %v, %v; want >= 1 (%d corrupts injected)", v, ok, corrupts)
	}
	if v, ok := sc.Value("shard_audits_total"); !ok || v < 1 {
		t.Fatalf("shard_audits_total = %v, %v; want >= 1", v, ok)
	}
	if v, ok := sc.Value("shard_audit_divergences_total"); !ok || v < 1 {
		t.Fatalf("shard_audit_divergences_total = %v, %v; want >= 1", v, ok)
	}

	// The surviving workers drain normally; the coordinator exits clean.
	if err := <-wireErr; err != nil {
		t.Fatalf("wire worker: %v\n%s", err, wireOut.String())
	}
	if err := <-cleanErr; err != nil {
		t.Fatalf("clean worker: %v\n%s", err, cleanOut.String())
	}
	stop()
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v\n%s", err, serveOut.String())
	}
	if !lakeOn {
		return
	}

	// The lake holds what the coordinator accepted after the audits: a
	// fresh coordinator with no workers must complete a resubmission from
	// it alone — any shard the lake lacks would wait forever — and render
	// the clean reference bytes, not a tampered verdict.
	freshOut := &safeBuf{}
	freshURL, freshErr, stopFresh := startServe(t, serveOpts{
		shards:   2,
		leaseTTL: time.Minute,
		linger:   15 * time.Second,
		lakeDir:  lakeDir,
	}, freshOut)
	fresh := capi.NewClient(freshURL)
	reply, err = fresh.Submit(ctx, quickLETParams(1))
	if err != nil {
		t.Fatal(err)
	}
	waitCtx, cancelWait := context.WithTimeout(ctx, 2*time.Minute)
	defer cancelWait()
	st, err = fresh.WaitSweep(waitCtx, reply.Fingerprint, nil)
	if err != nil {
		t.Fatalf("lake-resumed sweep never completed without workers: %v\nserve:\n%s", err, freshOut.String())
	}
	if st.State != capi.StateDone {
		t.Fatalf("lake-resumed sweep ended %q (%s), want done\nserve:\n%s", st.State, st.Error, freshOut.String())
	}
	got, err = fresh.Results(ctx, reply.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("lake-resumed output diverges from clean reference:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	stopFresh()
	if err := <-freshErr; err != nil {
		t.Fatalf("lake-resumed serve: %v\n%s", err, freshOut.String())
	}
}

// TestPoisonShardQuarantine pins the poison-work containment path end
// to end: a shard that crashes its executor on every attempt must burn
// through its attempt bound, land in quarantine, and fail the sweep
// with the shard named — instead of hanging the fleet forever. The
// worker process itself must survive every crash (typed failure
// reports, not worker deaths) and drain out cleanly.
func TestPoisonShardQuarantine(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	reg := obs.NewRegistry()
	serveOut := &safeBuf{}
	url, serveErr, stop := startServe(t, serveOpts{
		shards:   2,
		leaseTTL: time.Minute,
		linger:   5 * time.Second,
		queue:    shard.QueueConfig{MaxAttempts: 2},
		obsReg:   reg,
	}, serveOut)

	client := capi.NewClient(url)
	reply, err := client.Submit(ctx, quickLETParams(1))
	if err != nil {
		t.Fatal(err)
	}

	// The poison target: shard 0 of the grid's first campaign.
	ec := ssresf.DefaultExperimentConfig(true)
	g, err := sweep.LETGrid(ec, 1, sweepTestLETs, "memcpy")
	if err != nil {
		t.Fatal(err)
	}
	poisonFP := cfpOf(t, g.Spec.Items[0].Campaign)

	wOut := &safeBuf{}
	wErr := make(chan error, 1)
	go func() {
		wErr <- work(ctx, workOpts{url: url, name: "pw", poll: 25 * time.Millisecond, out: wOut, obsReg: reg,
			failShard: func(sp shard.Spec) error {
				if sp.Fingerprint == poisonFP && sp.Index == 0 {
					return errors.New("injection 0 crashes the simulator")
				}
				return nil
			}})
	}()

	st, err := client.WaitSweep(ctx, reply.Fingerprint, nil)
	if err != nil {
		t.Fatalf("waiting on sweep: %v\nserve:\n%s", err, serveOut.String())
	}
	if st.State != capi.StateFailed {
		t.Fatalf("sweep ended %q, want failed\nserve:\n%s", st.State, serveOut.String())
	}
	if !strings.Contains(st.Error, "quarantined as poison work") ||
		!strings.Contains(st.Error, "injection 0 crashes the simulator") {
		t.Fatalf("sweep error %q does not name the poison shard and its reason", st.Error)
	}

	// The quarantined shard surfaces in the sweep's progress, attributed
	// to the right campaign.
	quarantined := -1
	for _, cp := range st.Progress.Campaigns {
		if cp.Fingerprint == poisonFP {
			quarantined = cp.Shards.Quarantined
		}
	}
	if quarantined != 1 {
		t.Fatalf("poisoned campaign reports %d quarantined shards, want 1\nprogress: %+v", quarantined, st.Progress)
	}

	// The worker survived both crashes (typed reports, then drained out).
	if err := <-wErr; err != nil {
		t.Fatalf("worker must survive shard crashes, exited: %v\n%s", err, wOut.String())
	}
	if n := strings.Count(wOut.String(), "shard execution panicked"); n != 2 {
		t.Fatalf("worker reported %d crashes, want 2 (the attempt bound)\n%s", n, wOut.String())
	}

	sc, err := obs.ParseText(reg.Expose())
	if err != nil {
		t.Fatalf("exposition rejected by the strict parser: %v", err)
	}
	if v, ok := sc.Value("shard_quarantines_total"); !ok || v < 1 {
		t.Fatalf("shard_quarantines_total = %v, %v; want >= 1", v, ok)
	}
	if v, ok := sc.Value("shard_failures_total"); !ok || v < 2 {
		t.Fatalf("shard_failures_total = %v, %v; want >= 2", v, ok)
	}

	stop()
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v\n%s", err, serveOut.String())
	}
}

// TestJournalCorruptRecordReplay pins satellite (c) end to end: a
// journal record whose payload was damaged at rest — syntactically
// valid JSON, checksum now wrong — must be skipped on replay with a
// warning, its shard re-simulated by the fleet, and the rendered grid
// byte-identical to the undamaged run. The other journaled shards must
// not be re-simulated.
func TestJournalCorruptRecordReplay(t *testing.T) {
	socs := []int{1}
	grid, ec := sweepTestGrid(t, socs)
	want := inProcessLETReference(t, ec, socs)

	dir := t.TempDir()
	journal := filepath.Join(dir, "sweep.jsonl")
	out1 := filepath.Join(dir, "grid1.txt")
	out2 := filepath.Join(dir, "grid2.txt")
	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Minute)
	defer cancel()

	// Phase 1: a clean journaled run establishes the reference journal.
	serveOut1 := &safeBuf{}
	url1, serveErr1, _ := startServe(t, serveOpts{
		grid:     &grid,
		shards:   2,
		journal:  journal,
		leaseTTL: time.Minute,
		linger:   time.Second,
		outPath:  out1,
	}, serveOut1)
	w1Out := &safeBuf{}
	w1Err := make(chan error, 1)
	go func() {
		w1Err <- work(ctx, workOpts{url: url1, name: "jw1", poll: 25 * time.Millisecond, out: w1Out})
	}()
	select {
	case err := <-serveErr1:
		if err != nil {
			t.Fatalf("phase-1 serve: %v\n%s", err, serveOut1.String())
		}
	case <-ctx.Done():
		t.Fatalf("phase-1 sweep never completed:\n%s\n%s", serveOut1.String(), w1Out.String())
	}
	if err := <-w1Err; err != nil {
		t.Fatalf("phase-1 worker: %v", err)
	}
	got1, err := os.ReadFile(out1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got1, want) {
		t.Fatalf("phase-1 output diverges from in-process reference:\n%s", got1)
	}

	// Damage one shard record at rest: mutate its payload but leave its
	// checksum — the syntactically-valid-but-wrong record the replay
	// verifier exists to catch.
	raw, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(raw, []byte("\n"))
	damagedFP, damagedIdx := "", -1
	for i, ln := range lines {
		if len(bytes.TrimSpace(ln)) == 0 {
			continue
		}
		var rec runstore.Record
		if err := json.Unmarshal(ln, &rec); err != nil {
			t.Fatalf("journal line %d unparsable: %v", i, err)
		}
		if rec.Partial == nil || rec.Partial.Checksum == "" || len(rec.Partial.Injections) == 0 {
			continue
		}
		rec.Partial.Injections[0].TimePS += 777
		mangled, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		lines[i] = mangled
		damagedFP, damagedIdx = rec.Fingerprint, rec.Partial.Index
		break
	}
	if damagedIdx < 0 {
		t.Fatalf("no checksummed shard record found in journal:\n%s", raw)
	}
	if err := os.WriteFile(journal, bytes.Join(lines, []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}

	// Phase 2: replay must skip exactly the damaged record, re-simulate
	// that one shard through the worker, and render identical bytes.
	serveOut2 := &safeBuf{}
	url2, serveErr2, _ := startServe(t, serveOpts{
		grid:     &grid,
		shards:   2,
		journal:  journal,
		leaseTTL: time.Minute,
		linger:   time.Second,
		outPath:  out2,
	}, serveOut2)
	w2Out := &safeBuf{}
	w2Err := make(chan error, 1)
	go func() {
		w2Err <- work(ctx, workOpts{url: url2, name: "jw2", poll: 25 * time.Millisecond, out: w2Out})
	}()
	select {
	case err := <-serveErr2:
		if err != nil {
			t.Fatalf("phase-2 serve: %v\n%s", err, serveOut2.String())
		}
	case <-ctx.Done():
		t.Fatalf("phase-2 sweep never completed:\n%s\n%s", serveOut2.String(), w2Out.String())
	}
	if err := <-w2Err; err != nil {
		t.Fatalf("phase-2 worker: %v", err)
	}

	if !strings.Contains(serveOut2.String(), "journal records failed their integrity checksum") {
		t.Fatalf("replay never warned about the damaged record:\n%s", serveOut2.String())
	}
	// Exactly the damaged shard was re-simulated; every intact record
	// replayed from the journal.
	resimLine := fmt.Sprintf("campaign=%.12s shard=%d ", damagedFP, damagedIdx)
	if !strings.Contains(w2Out.String(), resimLine) {
		t.Fatalf("damaged shard %s%d never re-simulated:\n%s", damagedFP[:12], damagedIdx, w2Out.String())
	}
	if n := strings.Count(w2Out.String(), "shard done"); n != 1 {
		t.Fatalf("phase-2 worker simulated %d shards, want exactly 1 (the damaged one)\n%s", n, w2Out.String())
	}

	got2, err := os.ReadFile(out2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, want) {
		t.Fatalf("replayed output diverges from reference:\n--- got ---\n%s\n--- want ---\n%s", got2, want)
	}
}
