# Tier-1 verification, fuzz and smoke-gate targets; CI runs `make ci`, then
# `make fuzz-smoke` and each *-smoke gate. Performance is measured by the
# repo benchmark (`bash benchmark/run.sh`, declared in BENCHMARK.json).

GO ?= go

.PHONY: all vet build test race ci loc fuzz-smoke sweep-smoke chaos-smoke obs-smoke watch-smoke lake-smoke integrity-smoke bench

all: ci

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race re-runs the concurrency-heavy packages — the shard queue, sweep
# pool, wire client, journal store, metrics registry, the SVM's parallel
# cross-validation folds and the coordinator itself — under the race
# detector. This list also covers every package the integrity &
# quarantine subsystem touches (shard checksums/audits, capi typed
# errors, chaos corrupt faults, runstore replay verification, campaignd
# wiring). The simulation kernel and the 4- and 8-worker campaigns cover
# the compiled program every worker's engine reads (netlist.Flat.Program,
# built once per design), and the lane start's 4-worker campaigns cover
# lane groups fanned out over RunJobs workers, and the quiet-proof campaigns
# cover the golden change log every worker's proof reads, including the
# once-per-campaign replay an adopted golden rebuilds it with, and the fork
# campaigns cover the per-worker golden cursors 4-worker RunJobs fork
# from; the whole inject package is left out, it takes about 45 s under
# the detector.
race:
	$(GO) test -race -count=1 ./internal/shard ./internal/sweep ./internal/capi ./internal/runstore ./internal/chaos ./internal/obs ./internal/lake ./internal/svm ./internal/sim ./cmd/campaignd
	$(GO) test -race -count=1 -run 'TestWarmColdWorkerDeterminism|TestBatchOrderIndependence|TestLaneStartMatchesScalar|TestQuietProofAgrees|TestForkAgreesWithRestore' ./internal/inject

ci: vet build test race

# loc prints the code-line count per package under cmd/ and internal/:
# non-blank, non-comment lines of non-test Go files — the measure a
# simplification is judged by (deleting comments or moving code into
# _test.go files does not move it). CI prints it after `make ci`.
loc:
	@for d in $$(find cmd internal -name '*.go' ! -name '*_test.go' -exec dirname {} \; | sort -u); do \
		find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | awk -v d=$$d ' \
			{ s = $$0; sub(/^[ \t]+/, "", s) } \
			blk { if (index(s, "*/")) blk = 0; next } \
			s == "" || substr(s, 1, 2) == "//" { next } \
			substr(s, 1, 2) == "/*" { if (!index(s, "*/")) blk = 1; next } \
			{ n++ } END { printf "%6d  %s\n", n, d }'; \
	done | awk '{ t += $$1; print } END { printf "%6d  total\n", t }'

# fuzz-smoke gives each native fuzz target ten seconds of coverage-guided
# mutation from its in-code seeds. There is one target per decoder that
# reads bytes from disk, the lake or the wire, seeded with real encodes on
# both engines and stamped journal lines: no panic, accepted input
# re-encodes byte-identically, accepted state restores and resumes. One
# more, FuzzQueueOrder, is the event scheduler's order oracle: every pop
# of an interleaving of pushes, pops, cancels, snapshots and restores must
# be the minimum (t, phase, seq) of a sorted reference. FuzzLaneVsScalar
# is the lane engine's oracle: on random circuits, every lane of a LaneSim
# pass must equal a LevelSim running that lane's flip alone, value for
# value and eval for eval, after every step. FuzzQuietProof is the
# quiet-divergence proof's oracle: on random circuits with a flipped
# storage cell, a proof that reaches the end of the golden change log must
# see the same storage diff at every later checkpoint and golden outputs
# throughout, and a failed proof's jump target must equal the simulated
# faulty run. FuzzForkAgrees is the golden-cursor fork's oracle: on random
# circuits, an engine copied (CopyFrom) from a cursor advanced to t−1 and
# an engine restored from the cursor's checkpoint take the same fault at
# t, some of them on a transition in flight at t, and must stay equal
# value for value, queue for queue and eval for eval after every step.
# FuzzParse is the VCD parser's: no panic on any bytes, and a change
# sequence driven through the writer, whole or resumed midway from its
# State, parses back to every written value, the resumed dump
# byte-identical to the whole one. FuzzParseText is the metrics
# ingest's: no panic on any text, a worker push Fleet.Push accepts leaves
# the federated exposition parseable, and a refused one leaves the fleet
# as it was. -fuzzminimizetime 1x stops
# the fuzzer spending the budget minimizing inputs that are merely
# interesting, not failing.
fuzz-smoke:
	$(GO) test ./internal/sim -run '^$$' -fuzz '^FuzzDecodeCheckpoint$$' -fuzztime 10s -fuzzminimizetime 1x
	$(GO) test ./internal/sim -run '^$$' -fuzz '^FuzzQueueOrder$$' -fuzztime 10s -fuzzminimizetime 1x
	$(GO) test ./internal/sim -run '^$$' -fuzz '^FuzzLaneVsScalar$$' -fuzztime 10s -fuzzminimizetime 1x
	$(GO) test ./internal/sim -run '^$$' -fuzz '^FuzzQuietProof$$' -fuzztime 10s -fuzzminimizetime 1x
	$(GO) test ./internal/sim -run '^$$' -fuzz '^FuzzForkAgrees$$' -fuzztime 10s -fuzzminimizetime 1x
	$(GO) test ./internal/vcd -run '^$$' -fuzz '^FuzzDecodeWriterState$$' -fuzztime 10s -fuzzminimizetime 1x
	$(GO) test ./internal/vcd -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s -fuzzminimizetime 1x
	$(GO) test ./internal/inject -run '^$$' -fuzz '^FuzzAdoptGolden$$' -fuzztime 10s -fuzzminimizetime 1x
	$(GO) test ./internal/runstore -run '^$$' -fuzz '^FuzzReplay$$' -fuzztime 10s -fuzzminimizetime 1x
	$(GO) test ./internal/obs -run '^$$' -fuzz '^FuzzParseText$$' -fuzztime 10s -fuzzminimizetime 1x

# sweep-smoke runs a tiny two-campaign sweep (SoC1 at two LETs) through
# the campaignd coordinator with a live worker and asserts the rendered
# sweep output is byte-identical to the in-process ssresf path — once
# self-submitted via the -sweep flags, and once through the resource
# API: an empty coordinator, the grid submitted over POST /v1/sweeps by
# the typed capi client, results fetched and diffed against the local
# `socfault -sweep` execution path.
sweep-smoke:
	$(GO) test ./cmd/campaignd -run '^(TestSweepSmokeByteIdentical|TestAPISubmitSmoke)$$' -count=1 -v

# chaos-smoke is the robustness gate: a leader crash-stopped mid-grid
# with a warm standby that watched its leader lease taking over and
# replaying the journal (byte-identical output, zero re-simulation,
# stale-epoch completions fenced), a sweep drained through
# fault-injecting HTTP transports (drops, resets, 503s, duplicated POSTs,
# delays — every class asserted to have actually fired via the
# chaos_injected_total scrape), and a straggler shard re-issued
# speculatively — all under the race detector. Together the three runs
# leave the fenced, speculated and client-retry series provably nonzero.
# The failover runs three more times on its own, so a takeover that
# passes only by luck of timing fails here.
chaos-smoke:
	$(GO) test ./cmd/campaignd -race -run '^(TestCoordinatorFailover|TestSweepUnderChaos|TestSpeculationObserved)$$' -count=1 -v
	$(GO) test ./cmd/campaignd -race -run '^TestCoordinatorFailover$$' -count=3 -v

# obs-smoke is the observability gate: a quick sweep drained end to end
# with metrics, tracing and the pprof debug server enabled; /metrics is
# scraped mid-flight and at drain through the strict exposition parser
# (lifecycle series present and monotone), the exported trace must
# validate as Chrome trace_event JSON, and the rendered sweep output
# must be byte-identical to the uninstrumented reference.
obs-smoke:
	$(GO) test ./cmd/campaignd -race -run '^(TestObsSmoke)$$' -count=1 -v

# watch-smoke is the federation/live-watch gate: a sweep followed over
# the SSE stream (with a forced mid-stream reconnect) must match the
# polled path and the uninstrumented reference byte for byte, and a
# pushing worker must surface on GET /metrics/fleet with per-sweep cost
# attribution.
watch-smoke:
	$(GO) test ./cmd/campaignd -race -run '^(TestWatchMatchesPoll|TestFleetFederation)$$' -count=1 -v

# lake-smoke is the artifact-lake gate: the lake's builder tests (a
# worker's builder is fetch-only — a miss, or a reply damaged in flight,
# builds locally and uploads nothing — while the coordinator's builder
# publishes, and heals a key bound to a poisoned or stale-codec
# artifact) and the one read endpoint's surface tests (GET answers a
# key's bytes under their sha256; a malformed key is 400, a miss 404,
# any other method 405, a failed store 503), then two workers share
# one golden build through the coordinator's lake (exactly one "golden"
# span fleet-wide, worker lake hits nonzero, worker golden misses zero),
# a resubmitted sweep on the same lake completes with zero re-simulated
# shards and no workers at all, and a lake chaos-failed mid-sweep still
# drains to output byte-identical to the in-process reference — all
# under the race detector. The coordinator builds a sweep's campaigns
# concurrently, one build per golden spec, so the one-golden-span run is
# the single-flight gate: it runs three times, so a second build of a
# shared golden that slips through only by luck of timing fails here.
lake-smoke:
	$(GO) test -race ./internal/lake -run '^(TestBuilder|TestHTTP)' -count=1 -v
	$(GO) test ./cmd/campaignd -race -run '^(TestLakeCrossSweepReuse|TestLakeChaosMidSweep)$$' -count=1 -v
	$(GO) test ./cmd/campaignd -race -run '^TestLakeGoldenSharedOnce$$' -count=3 -v

# integrity-smoke is the end-to-end result-integrity gate: a sweep
# drained with a wire that corrupts most completion payloads (every one
# refused with integrity_mismatch, merged grid still byte-identical to
# the clean reference), a faulty worker computing wrong-but-checksummed
# results caught by audit re-execution and quarantined
# (fleet_workers{state="quarantined"} nonzero), a poison shard that
# crashes every executor landing in quarantined state instead of
# hanging its sweep, and a journal record damaged at rest skipped on
# replay and re-simulated — all under the race detector, three times
# over, so a scenario that passes only by luck of lease order fails here.
integrity-smoke:
	$(GO) test ./cmd/campaignd -race -run '^(TestIntegritySmoke|TestPoisonShardQuarantine|TestJournalCorruptRecordReplay)$$' -count=3 -v

# bench runs the full table/figure harness (minutes).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x .
