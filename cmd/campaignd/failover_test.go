package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
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

// safeBuf is a concurrency-safe output sink: workers, coordinators and
// the test all touch these buffers from different goroutines.
type safeBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *safeBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *safeBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func (s *safeBuf) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Len()
}

// waitSweepDone polls a sweep until it reports done, tolerating the
// coordinator being unreachable mid-poll — the window between a leader
// crash and the standby's takeover.
func waitSweepDone(t *testing.T, ctx context.Context, client *capi.Client, fp string, within time.Duration) capi.SweepStatus {
	t.Helper()
	deadline := time.Now().Add(within)
	var last error
	for time.Now().Before(deadline) {
		st, err := client.Sweep(ctx, fp)
		if err == nil {
			if st.State == capi.StateDone {
				return st
			}
			if capi.TerminalState(st.State) {
				t.Fatalf("sweep ended %q: %s", st.State, st.Error)
			}
		}
		last = err
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("sweep %.12s never completed (last error: %v)", fp, last)
	return capi.SweepStatus{}
}

// countShards totals the shard records across a journal snapshot.
func countShards(m shard.MemPartials) int {
	n := 0
	for _, shards := range m {
		n += len(shards)
	}
	return n
}

// TestCoordinatorFailover is the availability acceptance gate: a leader
// serving a submitted grid is crash-stopped mid-sweep while workers are
// live and one shard is held by a zombie worker under the old epoch. A
// warm standby watching the leader lease must take over — replaying the
// journal to rebuild the sweep from its journaled params and the finished
// shards from their journaled partials — and the fleet must drain the
// rest of the grid to a byte-identical result. No shard journaled before the crash may be
// re-simulated, and the zombie's completion, fenced by its stale epoch,
// must be refused with CodeStaleEpoch.
func TestCoordinatorFailover(t *testing.T) {
	ec := ssresf.DefaultExperimentConfig(true)
	want := inProcessLETReference(t, ec, []int{1})
	journal := filepath.Join(t.TempDir(), "fleet.jsonl")
	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Minute)
	defer cancel()

	// One registry shared by both coordinator incarnations and both
	// workers, so the post-mortem scrape sees fleet-wide totals: the
	// fence must show up in shard_fenced_total, the outage in
	// capi_retries_total.
	reg := obs.NewRegistry()

	// The leader: short leader lease so the standby notices the crash
	// quickly, long shard leases and speculation off so the zombie's
	// shard stays held until the failover — only the takeover (which
	// forgets old lease IDs) can free it.
	crash := make(chan struct{})
	leaderOut := &safeBuf{}
	url, leaderErr, _ := startServe(t, serveOpts{
		shards:    2,
		journal:   journal,
		leaseTTL:  time.Minute,
		leaderTTL: 300 * time.Millisecond,
		linger:    30 * time.Second,
		crash:     crash,
		obsReg:    reg,
	}, leaderOut)

	client := capi.NewClient(url)
	reply, err := client.Submit(ctx, quickLETParams(1))
	if err != nil {
		t.Fatal(err)
	}

	// The zombie leases a shard under epoch 1 and then sits on it.
	zombie := leaseRaw(t, url, "zombie")
	if zombie.Epoch != 1 {
		t.Fatalf("first leader granted epoch %d, want 1", zombie.Epoch)
	}

	// The warm standby watches the leader lease, ready to take over. Same
	// knobs as the leader; it inherits the leader's address from the
	// leader-lease file, so workers keep their URL across the failover.
	// The drain channel carries through the takeover, so the promoted
	// standby stops on it like any serve.
	standbyOut := &safeBuf{}
	standbyErr := make(chan error, 1)
	standbySig := make(chan os.Signal, 1)
	go func() {
		standbyErr <- standby(serveOpts{
			shards:    2,
			journal:   journal,
			leaseTTL:  time.Minute,
			leaderTTL: 300 * time.Millisecond,
			linger:    10 * time.Second,
			obsReg:    reg,
			signals:   standbySig,
		}, standbyOut)
	}()

	// Two live workers ride through the failover on their retry budgets.
	w1Out, w2Out := &safeBuf{}, &safeBuf{}
	workErr := make(chan error, 2)
	go func() {
		workErr <- work(ctx, workOpts{url: url, name: "w1", poll: 25 * time.Millisecond, out: w1Out, obsReg: reg})
	}()
	go func() {
		workErr <- work(ctx, workOpts{url: url, name: "w2", poll: 25 * time.Millisecond, out: w2Out, obsReg: reg})
	}()

	// Kill the leader mid-grid: as soon as at least one shard is
	// journaled (but with the zombie's shard still held, the grid cannot
	// be finished), snapshot what the journal holds and crash-stop.
	var journaledAtKill shard.MemPartials
	killBy := time.Now().Add(3 * time.Minute)
	for {
		m, _, err := runstore.LoadAll(journal)
		if err == nil && countShards(m) >= 1 {
			journaledAtKill = m
			break
		}
		if time.Now().After(killBy) {
			t.Fatalf("no shard journaled before the kill deadline (journal err: %v)", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(crash)
	if err := <-leaderErr; err == nil || !strings.Contains(err.Error(), "crash-stopped") {
		t.Fatalf("crashed leader exited with %v, want crash-stopped error", err)
	}

	// The standby must promote itself and the fleet finish the grid.
	waitSweepDone(t, ctx, client, reply.Fingerprint, 4*time.Minute)
	got, err := client.Results(ctx, reply.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("post-failover results differ from the in-process reference:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if out := standbyOut.String(); !strings.Contains(out, "taking over") {
		t.Fatalf("standby never announced its takeover:\n%s", out)
	}

	// Zero re-simulation: the promoted standby loads every journaled
	// partial as done, so a shard journaled before the crash must never
	// be handed out — and thus completed — a second time. At most one
	// "done" line per journaled shard across the whole fleet — and not
	// exactly one: the leader journals (append + fsync) before it
	// acknowledges, so the crash can cut the 200 of a shard the journal
	// already shows, and that worker logs "shard dropped" instead. The
	// byte-identity check above is the oracle that nothing was lost.
	full := w1Out.String() + w2Out.String()
	for fp, shards := range journaledAtKill {
		for _, p := range shards {
			// The range attr only appears on "shard done" lines, never on
			// "shard dropped" ones, so this counts completions exactly.
			marker := fmt.Sprintf("campaign=%.12s shard=%d range", fp, p.Index)
			if n := strings.Count(full, marker); n > 1 {
				t.Fatalf("shard %d of %.12s was journaled before the crash but completed %d times:\n%s", p.Index, fp, n, full)
			}
		}
	}

	// The zombie wakes up and delivers its shard under the old epoch.
	// The shard is long done (the sweep is), so the new coordinator must
	// fence the stale completion rather than double-merge it.
	built, err := shard.BuildLocal(zombie.Spec.Campaign, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := shard.ExecuteOn(built, zombie.Spec)
	if err != nil {
		t.Fatal(err)
	}
	err = client.Complete(ctx, zombie.Spec.Fingerprint, zombie.ID, zombie.Epoch, p)
	var ce *capi.Error
	if !errors.As(err, &ce) || ce.Code != capi.CodeStaleEpoch {
		t.Fatalf("stale-epoch completion returned %v, want %s refusal", err, capi.CodeStaleEpoch)
	}

	// The shared registry must have recorded the failover's signature:
	// the fence just provoked, and the client retries the workers burned
	// riding out the dead-leader window.
	sc, err := obs.ParseText(reg.Expose())
	if err != nil {
		t.Fatalf("post-failover exposition rejected by the strict parser: %v", err)
	}
	if v, ok := sc.Value("shard_fenced_total"); !ok || v < 1 {
		t.Fatalf("shard_fenced_total = %v, %v; want >= 1 after the zombie's stale completion", v, ok)
	}
	if v, ok := sc.Value("capi_retries_total"); !ok || v < 1 {
		t.Fatalf("capi_retries_total = %v, %v; want >= 1 across the leader outage", v, ok)
	}

	// Workers exit on the drained signal; their errors are nil.
	for i := 0; i < 2; i++ {
		if err := <-workErr; err != nil {
			t.Fatalf("worker: %v", err)
		}
	}
	standbySig <- os.Interrupt
	if err := <-standbyErr; err != nil {
		t.Fatalf("promoted standby: %v", err)
	}
}

// chaosClient wraps a capi client around a fresh seeded chaos transport
// with a tight retry schedule, returning both. Both report into reg:
// the transport's injected-fault counters and the client's retry
// counters land in the same scrape.
func chaosClient(url string, seed int64, reg *obs.Registry) (*capi.Client, *chaos.Transport) {
	tr := chaos.New(chaos.Config{
		Seed:     seed,
		Drop:     0.05,
		Err503:   0.02,
		Reset:    0.05,
		Dup:      0.05,
		Delay:    0.10,
		MaxDelay: 30 * time.Millisecond,
	})
	tr.SetObs(reg)
	c := capi.NewClient(url)
	c.HTTP = &http.Client{Transport: tr, Timeout: 30 * time.Second}
	c.Retries = 8
	c.RetryBase = 10 * time.Millisecond
	c.RetryCap = 100 * time.Millisecond
	c.Obs = reg
	return c, tr
}

// TestSweepUnderChaos drains a quick grid with every worker's (and the
// submitter's) HTTP traffic routed through seeded chaos transports —
// dropped connections, injected 503s, resets after the server committed,
// duplicated POSTs, delays. The client retry budgets plus the
// coordinator's idempotent completion handling must still produce the
// byte-identical grid, and every fault class must actually have fired.
func TestSweepUnderChaos(t *testing.T) {
	ec := ssresf.DefaultExperimentConfig(true)
	want := inProcessLETReference(t, ec, []int{1})
	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Minute)
	defer cancel()

	// Every chaos transport and client reports into one registry, so the
	// end-of-run scrape proves per-class injection counts from the same
	// surface an operator would use.
	reg := obs.NewRegistry()
	serveOut := &safeBuf{}
	url, serveErr, stop := startServe(t, serveOpts{
		shards:   2,
		leaseTTL: 2 * time.Second,
		linger:   5 * time.Second,
		obsReg:   reg,
	}, serveOut)

	submit, subTr := chaosClient(url, 41, reg)
	reply, err := submit.Submit(ctx, quickLETParams(1))
	if err != nil {
		t.Fatalf("submit through chaos: %v", err)
	}

	c1, tr1 := chaosClient(url, 42, reg)
	c2, tr2 := chaosClient(url, 43, reg)
	w1Out, w2Out := &safeBuf{}, &safeBuf{}
	workErr := make(chan error, 2)
	go func() {
		workErr <- work(ctx, workOpts{url: url, name: "cw1", poll: 25 * time.Millisecond, client: c1, out: w1Out})
	}()
	go func() {
		workErr <- work(ctx, workOpts{url: url, name: "cw2", poll: 25 * time.Millisecond, client: c2, out: w2Out})
	}()

	watch := capi.NewClient(url)
	if _, err := watch.WaitSweep(ctx, reply.Fingerprint, nil); err != nil {
		t.Fatal(err)
	}
	got, err := watch.Results(ctx, reply.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("results under chaos differ from the in-process reference:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	for i := 0; i < 2; i++ {
		if err := <-workErr; err != nil {
			t.Fatalf("worker under chaos: %v\nw1:\n%s\nw2:\n%s", err, w1Out.String(), w2Out.String())
		}
	}

	// The run only counts as a chaos run if every fault class fired. A
	// quick grid drains in a handful of requests — too few to guarantee
	// that — so keep the same transports under load with harmless lease
	// probes (the drained coordinator answers 410) until each class has
	// fired at least once.
	transports := []*chaos.Transport{subTr, tr1, tr2}
	sum := func() chaos.Stats {
		var total chaos.Stats
		for _, tr := range transports {
			s := tr.Stats()
			total.Requests += s.Requests
			total.Drops += s.Drops
			total.Errs503 += s.Errs503
			total.Resets += s.Resets
			total.Dups += s.Dups
			total.Delays += s.Delays
		}
		return total
	}
	probeBy := time.Now().Add(60 * time.Second)
	for i := 0; ; i++ {
		total := sum()
		if total.Drops > 0 && total.Errs503 > 0 && total.Resets > 0 && total.Dups > 0 && total.Delays > 0 {
			break
		}
		if time.Now().After(probeBy) {
			t.Fatalf("a fault class never fired across %d requests: %+v", total.Requests, total)
		}
		hc := &http.Client{Transport: transports[i%len(transports)], Timeout: 5 * time.Second}
		req, err := http.NewRequest(http.MethodPost, url+"/v1/lease", bytes.NewReader([]byte(`{"worker":"chaos-probe"}`)))
		if err != nil {
			t.Fatal(err)
		}
		if resp, err := hc.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}

	// The same evidence through the obs registry: chaos_injected_total
	// must be nonzero for every class, and the clients must have spent
	// retries surviving the faults. The chaos-smoke gate scrapes these
	// series rather than reaching into Stats.
	sc, err := obs.ParseText(reg.Expose())
	if err != nil {
		t.Fatalf("chaos-run exposition rejected by the strict parser: %v", err)
	}
	for _, class := range []string{"drop", "err503", "reset", "dup", "delay"} {
		if v, ok := sc.Value("chaos_injected_total", "class", class); !ok || v < 1 {
			t.Fatalf("chaos_injected_total{class=%q} = %v, %v; want >= 1", class, v, ok)
		}
	}
	if v, ok := sc.Value("capi_retries_total"); !ok || v < 1 {
		t.Fatalf("capi_retries_total = %v, %v; want >= 1 under chaos", v, ok)
	}

	stop()
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestServeGracefulDrain: on SIGTERM the coordinator must refuse new
// leases with 503 + Retry-After, wait out in-flight shards, release its
// leadership, and exit cleanly.
func TestServeGracefulDrain(t *testing.T) {
	cs := e2eSpec()
	journal := filepath.Join(t.TempDir(), "drain.jsonl")
	sig := make(chan os.Signal, 1)
	out := &safeBuf{}
	url, serveErr, _ := startServe(t, serveOpts{
		grid:       gridPtr(sweep.CampaignGrid(cs)),
		shards:     2,
		journal:    journal,
		leaseTTL:   time.Minute,
		linger:     time.Second,
		drainGrace: 20 * time.Second,
		signals:    sig,
	}, out)

	// Hold both shards so a post-signal lease probe can't grab one.
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	heldA := leaseRaw(t, url, "slow")
	heldB := leaseRaw(t, url, "slow")

	sig <- syscall.SIGTERM

	// Leases must start bouncing with the back-off hint.
	probeBy := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Post(url+"/v1/lease", "application/json", strings.NewReader(`{"worker":"probe"}`))
		if err == nil {
			refused := resp.StatusCode == http.StatusServiceUnavailable
			hint := resp.Header.Get("Retry-After")
			resp.Body.Close()
			if refused {
				if hint == "" {
					t.Fatal("draining coordinator refused a lease without a Retry-After hint")
				}
				break
			}
		}
		if time.Now().After(probeBy) {
			t.Fatal("coordinator never started refusing leases after SIGTERM")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// In-flight work still lands: complete both held shards, which
	// drains the lease count to zero and lets the coordinator exit.
	client := capi.NewClient(url)
	built, err := shard.BuildLocal(cs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, held := range []*shard.Lease{heldA, heldB} {
		p, err := shard.ExecuteOn(built, held.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := client.Complete(ctx, held.Spec.Fingerprint, held.ID, held.Epoch, p); err != nil {
			t.Fatalf("completing shard %d during drain: %v", held.Spec.Index, err)
		}
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve after drain: %v", err)
	}
	if s := out.String(); !strings.Contains(s, "draining") {
		t.Fatalf("coordinator never logged the drain:\n%s", s)
	}
	lease, err := runstore.ReadLeaderLease(journal + leaderSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if !lease.Expired(time.Now()) {
		t.Fatalf("leadership not released on exit: %+v", lease)
	}
}

// TestServeExitIgnoresSilentConn: a client that connects and never sends
// a request must not hold up serve's exit after a drain signal — the HTTP
// server's Shutdown would otherwise wait until that connection is 5 s old.
func TestServeExitIgnoresSilentConn(t *testing.T) {
	url, serveErr, stop := startServe(t, serveOpts{shards: 1, leaseTTL: time.Minute}, io.Discard)
	silent, err := net.Dial("tcp", strings.TrimPrefix(url, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	// A request on a second connection: answering it means the server has
	// accepted the silent connection queued before it.
	resp, err := http.Get(url + "/v1/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	stop()
	start := time.Now()
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve never returned after the drain signal")
	}
	if d := time.Since(start); d >= time.Second {
		t.Fatalf("serve returned %v after the drain signal with one silent connection open, want under 1s", d)
	}
}

// TestWorkerMaxOffline: a worker pointed at a dead coordinator with
// -max-offline must give up with a non-zero exit once the unreachable
// streak exceeds the window — not spin through its attempt budget.
func TestWorkerMaxOffline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + ln.Addr().String()
	ln.Close() // nothing is listening: every lease attempt fails fast

	client := capi.NewClient(url)
	client.Retries = -1 // single attempt per lease call
	out := &safeBuf{}
	start := time.Now()
	err = work(context.Background(), workOpts{
		url:        url,
		name:       "stranded",
		poll:       5 * time.Millisecond,
		maxOffline: 150 * time.Millisecond,
		client:     client,
		out:        out,
	})
	if err == nil || !strings.Contains(err.Error(), "max-offline") {
		t.Fatalf("stranded worker returned %v, want max-offline error", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("worker took %v to give up on a 150ms window", elapsed)
	}
	if s := out.String(); !strings.Contains(s, "giving up") {
		t.Fatalf("worker never logged its give-up:\n%s", s)
	}
}

// TestLeaderReleaseStaysExpired pins the clean-exit handover: stopping
// the leader heartbeat waits for it, so the already-expired lease serve
// writes next is the file's last word — no in-flight renewal lands on
// top of it and makes a standby wait out a full TTL (or outlives the
// test's temp dir). stop lands at a different phase of the 10ms tick
// each round.
func TestLeaderReleaseStaysExpired(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grid.jsonl"+leaderSuffix)
	const ttl = 30 * time.Millisecond
	for round := 0; round < 40; round++ {
		me := runstore.LeaderLease{Epoch: uint64(round + 1), Owner: "leader", ExpiresAt: time.Now().Add(ttl)}
		if err := runstore.WriteLeaderLease(path, me); err != nil {
			t.Fatal(err)
		}
		stop := startLeaderRenewal(path, me, ttl, nil, make(chan struct{}))
		time.Sleep(9*time.Millisecond + time.Duration(round)*50*time.Microsecond)
		stop()
		me.ExpiresAt = time.Now()
		if err := runstore.WriteLeaderLease(path, me); err != nil {
			t.Fatal(err)
		}
		time.Sleep(ttl / 2)
		got, err := runstore.ReadLeaderLease(path)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Expired(time.Now()) {
			t.Fatalf("round %d: released lease is live again until %v: a renewal outran stop", round, got.ExpiresAt)
		}
	}
}

// TestServeRefusesLedJournalUntouched: a second coordinator started on a
// journal whose leader lease is live must refuse before it reads the
// journal — Open's compaction would rename a new file under the live
// leader, whose later appends would then land in the unlinked old one.
func TestServeRefusesLedJournalUntouched(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "grid.jsonl")
	store, err := runstore.Open(journal)
	if err != nil {
		t.Fatal(err)
	}
	// A terminal marker makes the journal compactable.
	if err := store.Append("fp-done", stubSpecPartial()); err != nil {
		t.Fatal(err)
	}
	if err := store.MarkTerminal([]string{"fp-done"}); err != nil {
		t.Fatal(err)
	}
	store.Close()
	live := runstore.LeaderLease{Epoch: 1, Owner: "leader", ExpiresAt: time.Now().Add(time.Minute)}
	if err := runstore.WriteLeaderLease(journal+leaderSuffix, live); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	err = serve(serveOpts{shards: 1, journal: journal, leaseTTL: time.Minute}, ln, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "use -standby") {
		t.Fatalf("serve on a led journal returned %v, want the live-lease refusal", err)
	}
	after, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Fatalf("refused serve rewrote the led journal:\n--- before ---\n%s\n--- after ---\n%s", before, after)
	}
}
