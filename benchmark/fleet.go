package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/capi"
	"repro/internal/inject"
	"repro/internal/lake"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/sweep"
)

// Fleet sizing, fixed: one coordinator and two single-threaded workers on
// a loopback port, eight shards per campaign. The grid is Table I as
// `socfault -submit -sweep table1` and cmd/tables submit it: the ten
// benchmarks running memcpy, 80 shards, 3381 injections. Its wire
// description (sweep.GridParams) carries no seed, so the fleet workloads
// run the same grid under every --seed.
const (
	fleetShards  = 8
	fleetWorkers = 2
	// fleetPoll is the workers' base idle-poll interval; their back-off
	// caps at 20× (200 ms), which bounds how late an idle worker notices
	// new work.
	fleetPoll = 10 * time.Millisecond
)

var fleetGrid = sweep.GridParams{Kind: "table1"}

// proc is one spawned campaignd process.
type proc struct {
	cmd    *exec.Cmd
	waited chan struct{} // closed once Wait has returned
}

func spawn(dir, name string, env []string, bin string, args ...string) (*proc, error) {
	log, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), env...)
	cmd.Stdout, cmd.Stderr = log, log
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, err
	}
	p := &proc{cmd: cmd, waited: make(chan struct{})}
	go func() {
		// The exit status is read from ProcessState; a non-zero exit of a
		// killed process is expected.
		_ = cmd.Wait()
		log.Close()
		close(p.waited)
	}()
	return p, nil
}

func (p *proc) exited() bool {
	select {
	case <-p.waited:
		return true
	default:
		return false
	}
}

// stop ends the process and waits until it has: first by itself within
// grace (or after SIGTERM when term is set), then by SIGKILL.
func (p *proc) stop(term bool, grace time.Duration) {
	if term && !p.exited() {
		_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	}
	select {
	case <-p.waited:
		return
	case <-time.After(grace):
	}
	_ = p.cmd.Process.Kill()
	<-p.waited
}

// usage returns the exited process's CPU time and peak RSS.
func (p *proc) usage() (time.Duration, float64) {
	st := p.cmd.ProcessState
	if st == nil {
		return 0, 0
	}
	cpu := st.UserTime() + st.SystemTime()
	if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
		return cpu, float64(ru.Maxrss) / 1024
	}
	return cpu, 0
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// fleet is the set of processes one repetition drives.
type fleet struct {
	base    string
	client  *capi.Client
	coord   *proc
	workers []*proc
	readyIn time.Duration // spawn → the coordinator answered
}

// startFleet spawns a coordinator (journal in dir, lake in lakeDir) and
// nWorkers `campaignd work` processes, and returns once the coordinator
// answers its API. A port lost to a race is retried on a new one.
func startFleet(ctx context.Context, env *runEnv, dir, lakeDir string, nWorkers int) (*fleet, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		f := &fleet{base: "http://" + addr}
		start := time.Now()
		f.coord, err = spawn(dir, fmt.Sprintf("coord%d", attempt), nil, env.campaignd, "serve",
			"-addr", addr, "-shards", fmt.Sprint(fleetShards), "-linger", "10m",
			"-journal", filepath.Join(dir, "j.jsonl"), "-lake-dir", lakeDir)
		if err != nil {
			return nil, err
		}
		probe := capi.NewClient(f.base)
		probe.Retries = -1
		for {
			if _, err = probe.Sweeps(ctx); err == nil || f.coord.exited() || ctx.Err() != nil {
				break
			}
			time.Sleep(time.Millisecond)
		}
		if err != nil {
			f.coord.stop(true, time.Second)
			lastErr = fmt.Errorf("coordinator on %s never answered: %v", addr, err)
			if ctx.Err() != nil {
				return nil, lastErr
			}
			continue
		}
		f.readyIn = time.Since(start)
		f.client = capi.NewClient(f.base)
		for n := 1; n <= nWorkers; n++ {
			w, err := spawn(dir, fmt.Sprintf("w%d", n), []string{"GOMAXPROCS=1"}, env.campaignd, "work",
				"-url", f.base, "-name", fmt.Sprintf("w%d", n), "-poll", fleetPoll.String())
			if err != nil {
				f.stop()
				return nil, err
			}
			f.workers = append(f.workers, w)
		}
		return f, nil
	}
	return nil, lastErr
}

// stop ends every process of the fleet and waits for each: workers exit
// by themselves once the coordinator reports the sweep drained, the
// coordinator on SIGTERM. It returns their summed CPU time, and may be
// called again.
func (f *fleet) stop() (cpu time.Duration) {
	for _, w := range f.workers {
		w.stop(false, 2*time.Second)
	}
	f.coord.stop(true, 3*time.Second)
	for _, p := range append([]*proc{f.coord}, f.workers...) {
		c, _ := p.usage()
		cpu += c
	}
	return cpu
}

// fleetWorkload is submit → rendered bytes through real campaignd
// processes over loopback. Cold: fresh journal and lake, two workers
// simulate every shard. Warm: fresh journal over the lake a set-up sweep
// filled, no workers — every shard is restored, nothing simulates.
type fleetWorkload struct {
	warm bool

	env *runEnv
	// ref is the in-process rendering of the same grid
	// (Grid.Render(sweep.RunLocal(...))) every fetched result must equal
	// byte for byte.
	ref        []byte
	fp         string // the sweep fingerprint the coordinator files the grid under
	shards     int    // of the whole grid
	injections float64
	refWall    time.Duration
	renderWall time.Duration
	lakeDir    string // warm: the filled lake
	// polled marks that one traced repetition ran the WaitSweep poller;
	// its back-off makes a repetition a second longer, so one is enough.
	polled bool
}

func (w *fleetWorkload) prepare(ctx context.Context, env *runEnv) error {
	runtime.GOMAXPROCS(2)
	w.env = env
	grid, err := fleetGrid.Grid()
	if err != nil {
		return err
	}
	w.shards = fleetShards * len(grid.Spec.Items)
	if w.fp, err = grid.Spec.Fingerprint(); err != nil {
		return err
	}
	start := time.Now()
	results, err := sweep.RunLocal(grid.Spec, sweep.LocalOptions{Shards: fleetShards, Journal: filepath.Join(env.tmp, "ref.jsonl")})
	if err != nil {
		return fmt.Errorf("in-process reference: %v", err)
	}
	w.refWall = time.Since(start)
	start = time.Now()
	var buf bytes.Buffer
	if err := grid.Render(&buf, results); err != nil {
		return fmt.Errorf("in-process reference: %v", err)
	}
	w.renderWall = time.Since(start)
	w.ref = buf.Bytes()
	for _, r := range results {
		w.injections += float64(len(r.Injections))
	}
	if err := env.exact.pin("results_sha256", fmt.Sprintf("%x", sha256.Sum256(w.ref))); err != nil {
		return err
	}
	if !w.warm {
		return nil
	}

	// Fill the lake the warm repetitions read: one cold sweep, checked
	// like any other.
	w.lakeDir = filepath.Join(env.tmp, "lake")
	dir, err := os.MkdirTemp(env.tmp, "fill-")
	if err != nil {
		return err
	}
	f, err := startFleet(ctx, env, dir, w.lakeDir, fleetWorkers)
	if err != nil {
		return err
	}
	_, _, err = w.sweepOnce(ctx, f.client, scope{}, nil) // untraced
	f.stop()
	if err != nil {
		return fmt.Errorf("set-up sweep filling the lake: %v (logs: %s)", err, keepLogs(env, dir, "fleet_warm-fill"))
	}
	return os.RemoveAll(dir)
}

// sweepOnce is the timed operation: submit the grid, follow it to a
// terminal state, fetch the rendered result, and check it. It returns
// the terminal status and the wall from Submit sent to bytes verified.
func (w *fleetWorkload) sweepOnce(ctx context.Context, c *capi.Client, sc scope, onEvent func(capi.SweepEvent)) (capi.SweepStatus, time.Duration, error) {
	start := time.Now()
	sp := sc.child("capi.submit")
	reply, err := c.Submit(ctx, fleetGrid)
	sp.end()
	if err != nil {
		return capi.SweepStatus{}, 0, fmt.Errorf("submit: %v", err)
	}
	sp = sc.child("capi.watch")
	st, err := c.WatchSweep(ctx, reply.Fingerprint, onEvent)
	sp.end()
	if err != nil {
		return st, 0, fmt.Errorf("watch: %v", err)
	}
	if st.State != capi.StateDone {
		return st, 0, fmt.Errorf("sweep ended %s: %s", st.State, st.Error)
	}
	sp = sc.child("capi.results")
	got, err := c.Results(ctx, reply.Fingerprint)
	sp.end()
	if err != nil {
		return st, 0, fmt.Errorf("results: %v", err)
	}
	sp = sc.child("harness.verify_bytes")
	same := bytes.Equal(got, w.ref)
	sp.end()
	wall := time.Since(start)
	if !same {
		return st, wall, fmt.Errorf("fetched %d bytes differ from the %d-byte in-process rendering", len(got), len(w.ref))
	}
	return st, wall, nil
}

// shardOps counts the sweep's shards as operations: attempted, and those
// that did not complete or were quarantined.
func shardOps(st capi.SweepStatus) (attempted, failed int) {
	for _, c := range st.Progress.Campaigns {
		attempted += c.Shards.Total
		failed += c.Shards.Total - c.Shards.Done + c.Shards.Quarantined
	}
	return attempted, failed
}

// rep ignores the input index: every repetition submits the one grid.
func (w *fleetWorkload) rep(ctx context.Context, _ int, sc scope) (s sample, err error) {
	traced := sc.t != nil
	s = sample{ops: 1 + w.shards, layer: map[string]float64{}}
	dir, err := os.MkdirTemp(w.env.tmp, "rep-")
	if err != nil {
		return s, err
	}
	label := "fleet_cold"
	lakeDir, nProcs := filepath.Join(dir, "lake"), fleetWorkers
	if w.warm {
		label, lakeDir, nProcs = "fleet_warm", w.lakeDir, 0
	}
	if traced && !w.warm {
		nProcs = 0 // the traced cold pass runs its workers in the harness, a span per call
	}
	defer func() {
		if err != nil {
			err = fmt.Errorf("%v (logs: %s)", err, keepLogs(w.env, dir, label))
		}
		if rmErr := os.RemoveAll(dir); err == nil {
			err = rmErr
		}
	}()

	// Set-up: processes spawned, coordinator answering.
	sp := sc.child("campaignd.spawn")
	f, err := startFleet(ctx, w.env, dir, lakeDir, nProcs)
	s.setup = sp.end()
	if err != nil {
		return s, err
	}
	defer f.stop() // every path; stopping twice is harmless

	var st capi.SweepStatus
	if traced {
		st, err = w.tracedSweep(ctx, f, sc, &s)
	} else {
		st, s.wall, err = w.sweepOnce(ctx, f.client, sc, nil)
	}
	if err == nil {
		attempted, failed := shardOps(st)
		s.ops, s.failed = 1+attempted, failed
		if failed > 0 {
			err = fmt.Errorf("%d of %d shards failed or were quarantined", failed, attempted)
		} else if st.Cost != nil && !w.warm {
			err = w.env.exact.pinFloat("evals_per_inj", float64(st.Cost.InjectEvals)/w.injections)
		}
	}
	sp = sc.child("campaignd.stop")
	s.cpu = f.stop()
	sp.end()
	s.units, s.unitWall = w.injections, s.wall
	if traced {
		coordCPU, coordRSS := f.coord.usage()
		s.layer["campaignd.serve_ready_ms"] = millis(f.readyIn)
		s.layer["campaignd.coord_cpu_s"] = coordCPU.Seconds()
		s.layer["campaignd.coord_rss_mb"] = coordRSS
		s.layer["sweep.runlocal_wall_s"] = w.refWall.Seconds()
		s.layer["sweep.render_ms"] = millis(w.renderWall)
	}
	return s, err
}

// workerStats is what one in-harness worker spent.
type workerStats struct {
	exec, idle time.Duration
}

// tracedSweep is sweepOnce with the layers opened up: the cold pass's
// workers are loops in the harness built from the same public pieces
// cmd/campaignd's work mode uses (capi.Client.Lease →
// shard.Executor.ExecuteFor over lake-backed builders →
// capi.Client.Complete), a span around every call; in the first traced
// repetition a concurrent WaitSweep poller measures what polling instead
// of watching costs; and the coordinator's /metrics and the sweep's cost
// block are read once the sweep is terminal.
func (w *fleetWorkload) tracedSweep(ctx context.Context, f *fleet, sc scope, s *sample) (capi.SweepStatus, error) {
	wctx, stopWorkers := context.WithCancel(ctx)
	defer stopWorkers()
	var wg sync.WaitGroup
	stats := make([]workerStats, fleetWorkers)
	errs := make([]error, fleetWorkers)
	if !w.warm {
		for n := 0; n < fleetWorkers; n++ {
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				errs[n] = harnessWorker(wctx, sc, int64(n+1), f.base, fmt.Sprintf("h%d", n+1), &stats[n])
			}(n)
		}
	}

	submitted := time.Now()
	var firstCampaign, sweepDone, pollDone time.Time
	var pollWG sync.WaitGroup
	polling := false
	onEvent := func(ev capi.SweepEvent) {
		if !polling && !w.polled {
			// The sweep exists from the first event on: start the poller a
			// client without -watch would run.
			polling, w.polled = true, true
			pollWG.Add(1)
			go func() {
				defer pollWG.Done()
				if _, err := capi.NewClient(f.base).WaitSweep(wctx, w.fp, nil); err == nil {
					pollDone = time.Now()
				}
			}()
		}
		if firstCampaign.IsZero() && ev.CampaignsDone > 0 {
			firstCampaign = time.Now()
		}
		if ev.Type == "done" {
			sweepDone = time.Now()
		}
	}
	st, wall, err := w.sweepOnce(ctx, f.client, sc, onEvent)
	s.wall = wall
	if err != nil {
		stopWorkers()
		wg.Wait()
		pollWG.Wait()
		return st, err
	}
	// Workers leave on the coordinator's "drained" answer; the poller on
	// its next poll.
	sp := sc.child("harness.wait_poller")
	wg.Wait()
	pollWG.Wait()
	sp.end()
	for n, werr := range errs {
		if werr != nil {
			return st, fmt.Errorf("in-harness worker %d: %v", n+1, werr)
		}
	}

	l := s.layer
	if !firstCampaign.IsZero() {
		l["campaignd.first_campaign_s"] = firstCampaign.Sub(submitted).Seconds()
	}
	if !pollDone.IsZero() && !sweepDone.IsZero() {
		l["capi.wait_poll_lag_s"] = pollDone.Sub(sweepDone).Seconds()
	}
	var exec, idle time.Duration
	for _, ws := range stats {
		exec += ws.exec
		idle += ws.idle
	}
	// By construction coord_overhead_s + worker_exec_s = the traced wall.
	l["campaignd.worker_exec_s"] = exec.Seconds() / fleetWorkers
	l["campaignd.coord_overhead_s"] = wall.Seconds() - exec.Seconds()/fleetWorkers
	l["campaignd.coord_overhead_share"] = 1 - exec.Seconds()/fleetWorkers/wall.Seconds()
	l["campaignd.worker_idle_share"] = idle.Seconds() / (fleetWorkers * wall.Seconds())
	if st.Cost != nil && w.injections > 0 && !w.warm {
		l["inject.injections"] = w.injections
		l["inject.evals_per_inj"] = float64(st.Cost.InjectEvals) / w.injections
		l["inject.warm_starts"] = float64(st.Cost.WarmStarts)
		l["inject.pruned_runs"] = float64(st.Cost.PrunedRuns)
		l["inject.pruned_share"] = float64(st.Cost.PrunedRuns) / w.injections
		l["inject.delta_restores"] = float64(st.Cost.DeltaRestores)
		l["inject.restore_ms"] = millis(time.Duration(st.Cost.RestoreWallNS))
	}
	return st, scrape(ctx, f.base, l)
}

// harnessWorker is cmd/campaignd's work loop reduced to its public
// pieces, single-threaded like the spawned workers (GOMAXPROCS=1 there,
// Options.Workers=1 here).
func harnessWorker(ctx context.Context, sc scope, track int64, base, name string, ws *workerStats) error {
	client := capi.NewClient(base)
	ex := shard.NewExecutor()
	ex.SetTune(func(o *inject.Options) { o.Workers = 1 })
	ex.SetBuilder(lake.NewClientBuilder(client, name, nil))
	ex.SetPartialCache(lake.NewClientPartials(client, nil))
	idle := &capi.Backoff{Base: fleetPoll, Cap: 20 * fleetPoll}
	for {
		start := time.Now()
		lease, outcome, err := client.Lease(ctx, name)
		end := time.Now()
		if err != nil {
			return fmt.Errorf("lease: %v", err)
		}
		switch outcome {
		case capi.LeaseDrained:
			return nil
		case capi.LeaseIdle:
			sc.record(track, "capi.lease_idle", start, end)
			nap := idle.Next()
			select {
			case <-time.After(nap):
			case <-ctx.Done():
				return ctx.Err()
			}
			ws.idle += end.Sub(start) + nap
			continue
		}
		sc.record(track, "capi.lease", start, end)
		idle.Reset()
		sp := sc.on(track, "shard.execute")
		p, err := ex.ExecuteFor(lease.Spec, lease.Sweep)
		ws.exec += sp.end()
		if err != nil {
			return fmt.Errorf("shard %d: %v", lease.Spec.Index, err)
		}
		sp = sc.on(track, "capi.complete")
		err = client.Complete(ctx, lease.Spec.Fingerprint, lease.ID, lease.Epoch, p)
		sp.end()
		if err != nil {
			return fmt.Errorf("complete shard %d: %v", lease.Spec.Index, err)
		}
	}
}

// scrape reads the coordinator's own counters from GET /metrics.
func scrape(ctx context.Context, base string, l map[string]float64) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("scrape: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("scrape: %v", err)
	}
	sc, err := obs.ParseText(string(body))
	if err != nil {
		return fmt.Errorf("scrape: %v", err)
	}
	get := func(name string, labels ...string) float64 {
		v, _ := sc.Value(name, labels...)
		return v
	}
	l["campaignd.leases"] = get("shard_leases_total")
	l["campaignd.journal_appends"] = get("runstore_appends_total")
	l["campaignd.shards_executed"] = get("shard_duration_seconds_count")
	l["lake.hits"] = get("lake_hits_total", "kind", "golden") + get("lake_hits_total", "kind", "partial")
	l["lake.misses"] = get("lake_misses_total", "kind", "golden") + get("lake_misses_total", "kind", "partial")
	l["lake.bytes"] = get("lake_bytes")
	return nil
}

// keepLogs moves a failed repetition's directory under the logs dir so
// its process logs survive the run's clean-up.
func keepLogs(env *runEnv, dir, label string) string {
	if err := os.MkdirAll(env.logs, 0o755); err != nil {
		return ""
	}
	dst := fmt.Sprintf("%s/%s-%d", env.logs, label, time.Now().UnixNano())
	if err := os.Rename(dir, dst); err != nil {
		return ""
	}
	return dst
}

var errNoCampaignd = errors.New("fleet workloads need the cmd/campaignd binary: pass -campaignd (benchmark/run.sh builds it)")
