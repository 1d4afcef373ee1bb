package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/capi"
	"repro/internal/inject"
	"repro/internal/lake"
	"repro/internal/obs"
	"repro/internal/shard"
)

// workOpts is the parsed configuration of one work loop.
type workOpts struct {
	url        string
	name       string
	poll       time.Duration
	maxOffline time.Duration // 0: fall back to the attempt-count budget
	push       time.Duration // metrics-push cadence to the coordinator; 0 = no pushing
	lake       bool          // use the coordinator's artifact lake (fetch golden builds, share partials)
	client     *capi.Client  // nil: a default client for url (tests inject chaos transports)
	out        io.Writer

	// Observability; same contract as serveOpts — instrumentation never
	// changes what a shard computes.
	obsReg    *obs.Registry // metrics registry; nil = work creates its own
	tracer    *obs.Tracer   // span journal; nil = created iff tracePath is set
	debugAddr string        // pprof + /metrics server; "" = off
	tracePath string        // Chrome trace_event JSON written on exit; "" = off

	// Test hooks. tamper mutates a finished partial before it is posted —
	// the faulty-worker stand-in the audit path exists to catch (mutate
	// then re-Stamp: the checksum is self-consistent, only the verdict is
	// wrong). failShard, when it returns an error for a spec, stands in
	// for an execution that crashes — the poison-work path.
	tamper    func(p *shard.Partial)
	failShard func(sp shard.Spec) error
}

func runWork(args []string) error {
	fs := flag.NewFlagSet("campaignd work", flag.ContinueOnError)
	url := fs.String("url", "http://127.0.0.1:8372", "coordinator base URL")
	name := fs.String("name", defaultWorkerName(), "worker identity reported to the coordinator")
	poll := fs.Duration("poll", 2*time.Second, "base idle polling interval; idle polls back off exponentially (jittered, capped at 20x) and reset on the next lease")
	maxOffline := fs.Duration("max-offline", 0, "give up (non-zero exit) once the coordinator has been continuously unreachable this long; 0 bounds by attempt count instead")
	push := fs.Duration("push", 5*time.Second, "push this worker's metrics to the coordinator's federation endpoint (GET /metrics/fleet) at this interval; 0 disables")
	useLake := fs.Bool("lake", true, "use the coordinator's artifact lake when it serves one: fetch golden builds other processes already ran, publish this worker's, and share finished shard partials; any lake error falls back to local computation")
	debugAddr := fs.String("debug-addr", "", "serve GET /metrics and net/http/pprof on this address (workers serve no API, so this is their only scrape target)")
	tracePath := fs.String("trace", "", "write the shard-lifecycle span journal as Chrome trace_event JSON to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := positiveDuration("poll", *poll); err != nil {
		return err
	}
	if *maxOffline < 0 {
		return fmt.Errorf("-max-offline must not be negative, got %v", *maxOffline)
	}
	if *push < 0 {
		return fmt.Errorf("-push must not be negative, got %v", *push)
	}
	return work(context.Background(), workOpts{
		url: *url, name: *name, poll: *poll, maxOffline: *maxOffline, push: *push, lake: *useLake,
		out: os.Stdout, debugAddr: *debugAddr, tracePath: *tracePath,
	})
}

// maxConsecutiveFailures bounds how long a worker survives an
// unreachable coordinator: that many exhausted client retry budgets,
// each separated by the capped idle backoff.
const maxConsecutiveFailures = 30

// idleBackoffFactor caps the jittered idle backoff at this multiple of
// the base -poll interval. A fleet's idle polls would otherwise
// synchronize — every worker knocked idle by the same drained queue or
// coordinator restart polls on the same fixed beat — into a thundering
// herd; the jittered, growing interval spreads them out while keeping
// the first re-poll prompt.
const idleBackoffFactor = 20

// work is the lease/execute/post loop over every sweep a coordinator
// serves. It builds each distinct campaign once (golden run +
// checkpoints + plan) and reuses it across all of that campaign's
// shards — the coordinator's affinity scheduling keeps handing this
// worker the campaign it has already built — and memoizes finished
// partials, so a requeued shard it already computed is answered from
// cache. While a shard executes, a heartbeat goroutine renews the lease
// at a third of its TTL, so a shard outrunning the lease is never
// re-issued. The loop exits cleanly when the coordinator reports itself
// drained (every sweep terminal) or the context is cancelled, and with
// an error when the coordinator stays unreachable past the -max-offline
// window (or, without one, for maxConsecutiveFailures rounds).
func work(ctx context.Context, opts workOpts) error {
	logger := newLogger(opts.out).With("worker", opts.name)
	reg := opts.obsReg
	if reg == nil {
		reg = obs.NewRegistry()
	}
	tracer := opts.tracer
	if tracer == nil && opts.tracePath != "" {
		tracer = obs.NewTracer()
	}
	if opts.tracePath != "" {
		defer func() {
			if err := tracer.WriteFile(opts.tracePath); err != nil {
				logger.Warn("trace write failed", "path", opts.tracePath, "err", err)
			}
		}()
	}
	if opts.debugAddr != "" {
		dbgAddr, stopDebug, err := startDebugServer(opts.debugAddr, reg)
		if err != nil {
			return err
		}
		defer stopDebug()
		logger.Info("debug server listening", "addr", dbgAddr)
	}

	exec := shard.NewExecutor()
	exec.SetMetrics(shard.NewMetrics(reg), tracer)
	// Worker-local tuning only touches Options fields excluded from the
	// campaign fingerprint: the metrics sink changes nothing a shard
	// computes, so instrumented and bare workers merge bit-identically.
	im := inject.NewMetrics(reg)
	im.Tracer = tracer
	exec.SetTune(func(o *inject.Options) { o.Metrics = im })

	client := opts.client
	if client == nil {
		client = capi.NewClient(opts.url)
	}
	if client.Obs == nil {
		client.Obs = reg
	}
	if opts.lake {
		// Lake-backed backends: claim-or-fetch golden builds instead of
		// always simulating them, and share finished partials fleet-wide.
		// The worker's own lake_* counters land on reg, so -push federates
		// them into the coordinator's /metrics/fleet view. A coordinator
		// without a lake answers 404, which the backends treat as a miss —
		// the executor then behaves exactly as without a lake.
		lm := lake.NewMetrics(reg)
		exec.SetBuilder(lake.NewClientBuilder(client, opts.name, lm))
		exec.SetPartialCache(lake.NewClientPartials(client, lm))
	}
	// Metrics federation: push the registry's exposition to the
	// coordinator on a fixed cadence (the coordinator derives the
	// liveness window from the declared interval), plus one final
	// best-effort push on exit so the fleet view carries this worker's
	// last word. Pushes are fire-and-forget: a failed push is simply
	// superseded by the next one, and an unreachable coordinator is
	// already the lease loop's problem.
	if opts.push > 0 {
		pushCtx, stopPush := context.WithCancel(ctx)
		pushDone := make(chan struct{})
		go func() {
			defer close(pushDone)
			ticker := time.NewTicker(opts.push)
			defer ticker.Stop()
			for {
				select {
				case <-pushCtx.Done():
					return
				case <-ticker.C:
					if err := client.PushMetrics(pushCtx, opts.name, reg.Expose(), opts.push); err != nil && pushCtx.Err() == nil {
						logger.Debug("metrics push failed", "err", err)
					}
				}
			}
		}()
		defer func() {
			stopPush()
			<-pushDone
			finalCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			// The exit push declares no cadence: this worker will never
			// push again, so the fleet's default staleness window applies
			// rather than 3x a cadence that no longer exists.
			client.PushMetrics(finalCtx, opts.name, reg.Expose(), 0)
		}()
	}

	idle := &capi.Backoff{Base: opts.poll, Cap: idleBackoffFactor * opts.poll}
	failures := 0
	var offlineSince time.Time // first failure of the current unreachable streak
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		lease, outcome, err := client.Lease(ctx, opts.name)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			var ce *capi.Error
			if errors.As(err, &ce) && ce.Code == capi.CodeQuarantined {
				// The coordinator no longer trusts this worker's results;
				// polling on would be refused forever. Exit distinctly so an
				// operator (or supervisor) sees a health verdict, not a
				// connectivity one.
				logger.Error("worker quarantined by coordinator; exiting", "err", err)
				return fmt.Errorf("quarantined by coordinator: %v", err)
			}
			failures++
			now := time.Now()
			if offlineSince.IsZero() {
				offlineSince = now
			}
			// -max-offline bounds the streak by wall clock — the operator's
			// "how long may a worker box sit useless" knob; without it the
			// attempt-count budget applies.
			if opts.maxOffline > 0 {
				if down := now.Sub(offlineSince); down >= opts.maxOffline {
					logger.Error("coordinator unreachable; giving up", "down", down.Round(time.Millisecond), "limit", opts.maxOffline)
					return fmt.Errorf("coordinator unreachable for %v (max-offline %v, %d attempts): %v", down.Round(time.Millisecond), opts.maxOffline, failures, err)
				}
			} else if failures >= maxConsecutiveFailures {
				return fmt.Errorf("coordinator unreachable after %d attempts: %v", failures, err)
			}
			if !sleepCtx(ctx, idle.Next()) {
				return ctx.Err()
			}
			continue
		}
		failures = 0
		offlineSince = time.Time{}
		switch outcome {
		case capi.LeaseDrained:
			logger.Info("campaign complete")
			return nil
		case capi.LeaseIdle:
			if !sleepCtx(ctx, idle.Next()) {
				return ctx.Err()
			}
			continue
		}
		idle.Reset()
		hitsBefore := exec.CacheHits()
		stopRenew := startRenewal(ctx, client, opts, lease)
		var p *shard.Partial
		if opts.failShard != nil {
			if ferr := opts.failShard(lease.Spec); ferr != nil {
				err = &shard.ExecPanicError{Msg: ferr.Error()}
			}
		}
		if err == nil {
			p, err = exec.ExecuteFor(lease.Spec, lease.Sweep)
		}
		stopRenew()
		if err != nil {
			var pe *shard.ExecPanicError
			if errors.As(err, &pe) {
				// The shard crashed its executor — the executor's recover
				// converted the panic into this typed error, so the worker
				// process survives. Report the failure so the coordinator
				// releases the lease now (no TTL wait) and counts the attempt
				// toward the shard's quarantine bound, then poll on.
				logger.Error("shard execution panicked", "campaign", shard.Short(lease.Spec.Fingerprint),
					"shard", lease.Spec.Index, "err", err)
				if ferr := client.Fail(ctx, lease.Spec.Fingerprint, lease.ID, opts.name, err.Error()); ferr != nil && ctx.Err() == nil {
					logger.Warn("failure report dropped", "err", ferr)
				}
				continue
			}
			// A shard this process cannot execute (bad spec, build failure)
			// is fatal for the worker; the lease expires and another worker
			// picks the shard up.
			return fmt.Errorf("executing shard %d: %v", lease.Spec.Index, err)
		}
		if opts.tamper != nil {
			opts.tamper(p)
		}
		cached := exec.CacheHits() > hitsBefore
		if err := client.Complete(ctx, lease.Spec.Fingerprint, lease.ID, lease.Epoch, p); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			// Either the coordinator refused the result (the shard completed
			// elsewhere — deterministic execution makes the other copy
			// identical, so dropping ours is harmless), or it stayed
			// unreachable through the client's retries. Both drop and poll
			// on: an outage is ridden out by the lease loop's failure
			// budget, the executor's result cache answers a re-issued copy
			// of this shard instantly, and dying here would throw away the
			// worker's warm golden runs over a transient blip.
			logger.Warn("shard dropped", "campaign", shard.Short(lease.Spec.Fingerprint), "shard", lease.Spec.Index, "err", err)
			continue
		}
		logger.Info("shard done", "campaign", shard.Short(lease.Spec.Fingerprint), "shard", lease.Spec.Index,
			"range", fmt.Sprintf("[%d,%d)", lease.Spec.Start, lease.Spec.End),
			"injections", len(p.Injections), "cached", cached)
	}
}

// startRenewal heartbeats the lease at a third of its TTL while the
// shard executes; the returned stop function ends the heartbeat —
// aborting any in-flight renew request, so a finished shard's result is
// never delayed behind a hanging heartbeat — and waits it out. Renewal
// is best-effort: a refusal (the lease already expired, or the shard
// completed from a journal) just stops the heartbeat — the late
// completion path still delivers the result — and transport errors are
// retried at the next tick.
func startRenewal(ctx context.Context, client *capi.Client, opts workOpts, lease *shard.Lease) (stop func()) {
	if lease.TTL <= 0 {
		return func() {}
	}
	interval := lease.TTL / 3
	if interval < 50*time.Millisecond {
		interval = 50 * time.Millisecond
	}
	rctx, cancel := context.WithCancel(ctx)
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-rctx.Done():
				return
			case <-ticker.C:
				if _, err := client.Renew(rctx, lease.Spec.Fingerprint, lease.ID); err != nil && capi.IsRefusal(err) {
					return
				}
			}
		}
	}()
	return func() {
		cancel()
		<-finished
	}
}

// sleepCtx sleeps for d unless the context ends first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	select {
	case <-time.After(d):
		return true
	case <-ctx.Done():
		return false
	}
}
