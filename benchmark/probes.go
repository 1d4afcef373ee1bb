package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/inject"
	"repro/internal/lake"
	"repro/internal/netlist"
	"repro/internal/runstore"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/socgen"
	"repro/internal/ssresf"
	"repro/internal/sweep"
)

// Layer probes time single public operations of every layer on fixed
// inputs, whatever workload the run is for: the traced repetitions say
// where a workload's time goes, the probes say what one operation of a
// layer costs. Inputs are fixed (not seeded) so the deterministic ones
// (evals, bytes) repeat exactly from run to run and commit to commit.
const (
	probeKernelSoC = 10 // engine kernel: the largest design, sort kernel
	probeShardSoC  = 5  // checkpoint, codec, shard, journal and lake probes
	probeVCDSoC    = 1  // detector comparison: cold replays are slow
	probeVCDInj    = 40 // injections per detector-comparison run
)

// layerProbes runs every probe and returns its values by metric name.
func layerProbes(tmp string) (map[string]float64, error) {
	runtime.GOMAXPROCS(2)
	out := map[string]float64{}
	if err := probeKernel(out); err != nil {
		return nil, err
	}
	if err := probeCheckpoint(out); err != nil {
		return nil, err
	}
	pc, err := probeShard(out)
	if err != nil {
		return nil, err
	}
	if err := probeJournalLake(tmp, pc, out); err != nil {
		return nil, err
	}
	return out, probeDetector(out)
}

// flatAndPlan builds the flattened netlist and stimulus of benchmark soc
// running kernel.
func flatAndPlan(soc int, kernel string) (*netlist.Flat, *socgen.StimulusPlan, error) {
	cfg, err := socgen.ConfigByIndex(soc)
	if err != nil {
		return nil, nil, err
	}
	prog, err := shard.WorkloadProgram(kernel)
	if err != nil {
		return nil, nil, err
	}
	return buildDesign(scope{}, cfg, prog) // untraced
}

// timeN returns the median wall of n calls of fn.
func timeN(n int, fn func() error) (time.Duration, error) {
	walls := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		walls = append(walls, time.Since(start).Seconds())
	}
	return time.Duration(median(walls) * float64(time.Second)), nil
}

// probeKernel is the golden-only run BenchmarkEngines computes and never
// records: sim.New + plan.Apply + Run, per engine, with the allocator's
// share of it.
func probeKernel(out map[string]float64) error {
	f, plan, err := flatAndPlan(probeKernelSoC, "sort")
	if err != nil {
		return err
	}
	for _, k := range []struct {
		kind sim.EngineKind
		name string
	}{{sim.KindEvent, "sim.event."}, {sim.KindLevel, "sim.level."}} {
		const runs = 5
		var evals uint64
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		wall, err := timeN(runs, func() error {
			e, err := sim.New(k.kind, f)
			if err != nil {
				return err
			}
			if err := plan.Apply(e); err != nil {
				return err
			}
			if err := e.Run(plan.DurationPS); err != nil {
				return err
			}
			evals = e.CellEvals()
			return nil
		})
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&ms1)
		if evals == 0 {
			return fmt.Errorf("%s golden run evaluated no cells", k.kind)
		}
		total := float64(evals) * runs
		out[k.name+"ns_per_eval"] = float64(wall.Nanoseconds()) / float64(evals)
		out[k.name+"allocs_per_eval"] = float64(ms1.Mallocs-ms0.Mallocs) / total
		out[k.name+"bytes_per_eval"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / total
		out[k.name+"golden_evals"] = float64(evals)
	}
	return nil
}

// probeCheckpoint times the warm-start primitives on a mid-run EventSim:
// snapshot, wholesale restore, dirty-set restore after one simulated
// cycle, and the checkpoint wire codec.
func probeCheckpoint(out map[string]float64) error {
	f, plan, err := flatAndPlan(probeShardSoC, "memcpy")
	if err != nil {
		return err
	}
	e, err := sim.New(sim.KindEvent, f)
	if err != nil {
		return err
	}
	if err := plan.Apply(e); err != nil {
		return err
	}
	mid := plan.DurationPS / 2
	if err := e.Run(mid); err != nil {
		return err
	}
	var ck *sim.Checkpoint
	d, err := timeN(50, func() error { ck = e.Snapshot(); return nil })
	if err != nil {
		return err
	}
	out["sim.snapshot_us"] = micros(d)
	if d, err = timeN(50, func() error { return e.Restore(ck) }); err != nil {
		return err
	}
	out["sim.restore_full_us"] = micros(d)
	var deltas []float64
	for i := 0; i < 50; i++ {
		if err := e.Run(mid + plan.PeriodPS); err != nil {
			return err
		}
		start := time.Now()
		if err := e.RestoreDelta(ck); err != nil {
			return err
		}
		deltas = append(deltas, micros(time.Since(start)))
	}
	out["sim.restore_delta_us"] = median(deltas)

	var buf bytes.Buffer
	if d, err = timeN(20, func() error { buf.Reset(); return sim.EncodeCheckpoint(&buf, ck) }); err != nil {
		return err
	}
	out["sim.ckpt_encode_ms"] = millis(d)
	out["sim.ckpt_bytes"] = float64(buf.Len())
	blob := append([]byte(nil), buf.Bytes()...)
	if d, err = timeN(20, func() error { _, err := sim.DecodeCheckpoint(bytes.NewReader(blob)); return err }); err != nil {
		return err
	}
	out["sim.ckpt_decode_ms"] = millis(d)
	return nil
}

// probeCampaign is the campaign the shard, journal and lake probes work
// on, with its eight executed partials.
type probeCampaign struct {
	built    *shard.Built
	specs    []shard.Spec
	partials []*shard.Partial
	artifact []byte
}

// probeShard times the executor-side steps of one campaign: build (with
// the golden run), build from the golden artifact, shard execution,
// stamp/verify, merge, and lease→complete cycles through shard.Queue and
// sweep.Pool with pre-stamped partials.
func probeShard(out map[string]float64) (*probeCampaign, error) {
	ec := ssresf.DefaultExperimentConfig(false)
	cs := shard.SpecFromOptions(probeShardSoC, "memcpy", ec.OptionsFor(probeShardSoC))
	pc := &probeCampaign{}
	d, err := timeN(3, func() (err error) { pc.built, err = shard.BuildLocal(cs, nil); return err })
	if err != nil {
		return nil, err
	}
	out["shard.build_ms"] = millis(d)
	if d, err = timeN(5, func() (err error) { pc.artifact, err = shard.EncodeBuilt(pc.built); return err }); err != nil {
		return nil, err
	}
	out["inject.golden_encode_ms"] = millis(d)
	out["inject.golden_bytes"] = float64(len(pc.artifact))
	if d, err = timeN(3, func() error { _, err := shard.BuildFromGolden(cs, nil, pc.artifact); return err }); err != nil {
		return nil, err
	}
	out["shard.build_from_golden_ms"] = millis(d)

	if pc.specs, err = shard.PlanAtMost(cs, fleetShards, len(pc.built.Jobs)); err != nil {
		return nil, err
	}
	var wire int
	for _, sp := range pc.specs {
		p, err := shard.ExecuteOn(pc.built, sp)
		if err != nil {
			return nil, err
		}
		b, err := json.Marshal(p)
		if err != nil {
			return nil, err
		}
		wire += len(b)
		pc.partials = append(pc.partials, p)
	}
	out["shard.partial_bytes"] = float64(wire) / float64(len(pc.partials))
	p0 := pc.partials[0]
	if d, err = timeN(50, p0.Stamp); err != nil {
		return nil, err
	}
	out["shard.stamp_us"] = micros(d)
	if d, err = timeN(50, p0.Verify); err != nil {
		return nil, err
	}
	out["shard.verify_us"] = micros(d)
	if d, err = timeN(10, func() error { _, err := shard.Merge(pc.built, pc.partials); return err }); err != nil {
		return nil, err
	}
	out["shard.merge_ms"] = millis(d)

	const rounds = 50
	now := time.Now()
	start := time.Now()
	for r := 0; r < rounds; r++ {
		q := shard.NewQueue(pc.specs, time.Minute)
		for {
			l, ok := q.Lease("probe", now)
			if !ok {
				break
			}
			if err := q.Complete(l.ID, 0, pc.partials[l.Spec.Index], now); err != nil {
				return nil, err
			}
		}
		if !q.Done() {
			return nil, fmt.Errorf("queue probe left shards undone")
		}
	}
	out["shard.queue_cycles_per_s"] = float64(rounds*len(pc.specs)) / time.Since(start).Seconds()

	ss := sweep.SweepSpec{Name: "probe", Items: []sweep.Item{{Key: "probe", Campaign: cs}}}
	start = time.Now()
	for r := 0; r < rounds; r++ {
		pool, err := sweep.NewPool(ss, time.Minute)
		if err != nil {
			return nil, err
		}
		if _, err := pool.Open(0, pc.specs, nil); err != nil {
			return nil, err
		}
		for {
			l, ok := pool.Lease("probe", now)
			if !ok {
				break
			}
			if err := pool.Complete(l.Spec.Fingerprint, l.ID, l.Epoch, pc.partials[l.Spec.Index], now); err != nil {
				return nil, err
			}
		}
		if !pool.Done() {
			return nil, fmt.Errorf("pool probe left shards undone")
		}
	}
	out["sweep.pool_cycles_per_s"] = float64(rounds*len(pc.specs)) / time.Since(start).Seconds()
	return pc, nil
}

// probeJournalLake appends the probe campaign's partials to a runstore
// journal and loads them back, and puts and gets its golden artifact and
// partials through a lake store.
func probeJournalLake(tmp string, pc *probeCampaign, out map[string]float64) error {
	dir, err := os.MkdirTemp(tmp, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	path := filepath.Join(dir, "j.jsonl")
	store, err := runstore.Open(path)
	if err != nil {
		return err
	}
	var appends []float64
	for round := 0; round < 4; round++ {
		for _, p := range pc.partials {
			// A journal dedupes on (fingerprint, index): give each round its
			// own namespace so every append writes.
			fp := fmt.Sprintf("%s-%d", pc.built.Fingerprint, round)
			start := time.Now()
			if err := store.Append(fp, p); err != nil {
				store.Close()
				return err
			}
			appends = append(appends, micros(time.Since(start)))
		}
	}
	if err := store.Close(); err != nil {
		return err
	}
	out["runstore.append_us_p50"] = median(appends)
	if v, _, ok := highPercentile(appends); ok {
		out["runstore.append_us_hi"] = v
	}
	if st, err := os.Stat(path); err == nil {
		out["runstore.journal_bytes"] = float64(st.Size())
	}
	d, err := timeN(5, func() error {
		all, _, err := runstore.LoadAll(path)
		if err == nil && len(all) != 4 {
			err = fmt.Errorf("journal probe loaded %d campaigns, wrote 4", len(all))
		}
		return err
	})
	if err != nil {
		return err
	}
	out["runstore.loadall_ms"] = millis(d)

	lk, err := lake.Open(filepath.Join(dir, "lake"), 0)
	if err != nil {
		return err
	}
	blobs := [][]byte{pc.artifact}
	for _, p := range pc.partials {
		b, err := json.Marshal(p)
		if err != nil {
			return err
		}
		blobs = append(blobs, b)
	}
	var hashes []string
	start := time.Now()
	for _, b := range blobs {
		h, err := lk.Put(b)
		if err != nil {
			return err
		}
		hashes = append(hashes, h)
	}
	out["lake.put_ms"] = millis(time.Since(start))
	start = time.Now()
	for i, h := range hashes {
		got, err := lk.Get(h)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, blobs[i]) {
			return fmt.Errorf("lake probe read back different bytes for %.12s", h)
		}
	}
	out["lake.get_ms"] = millis(time.Since(start))
	return nil
}

type countWriter struct{ n int }

func (c *countWriter) Write(p []byte) (int, error) { c.n += len(p); return len(p), nil }

// probeDetector compares the two soft-error detectors on the same cold
// injections — full VCD dump, parse and diff against the cycle signature
// — and sizes the dump one injection's tail produces.
func probeDetector(out map[string]float64) error {
	ec := ssresf.DefaultExperimentConfig(false)
	cfg, err := socgen.ConfigByIndex(probeVCDSoC)
	if err != nil {
		return err
	}
	walls := map[bool]time.Duration{}
	var verdicts [][]inject.Injection
	for _, vcd := range []bool{false, true} {
		o := ec.OptionsFor(probeVCDSoC)
		o.ColdStart, o.CompareVCD = true, vcd
		run, err := inject.PrepareSoC(cfg, ec.Workload, ec.DB, o)
		if err != nil {
			return err
		}
		if err := run.Campaign.RunJobs(run.Result, 0, probeVCDInj); err != nil {
			return err
		}
		walls[vcd] = run.Result.InjectWall
		verdicts = append(verdicts, run.Result.Injections)
	}
	if differ, first, err := diffVerdicts(verdicts[0], verdicts[1]); err != nil || differ > vcdTolerance {
		return fmt.Errorf("detector probe: signature and VCD detectors disagree on %d verdicts (%s): %v", differ, first, err)
	}
	out["vcd.detector_overhead_x"] = walls[true].Seconds() / walls[false].Seconds()

	o := ec.OptionsFor(probeVCDSoC)
	o.CompareVCD = true
	run, err := inject.PrepareSoC(cfg, ec.Workload, ec.DB, o)
	if err != nil {
		return err
	}
	if err := run.Campaign.RunJobs(run.Result, 0, probeVCDInj); err != nil {
		return err
	}
	// A strike before the first checkpoint has no restore point to dump a
	// tail from; TailVCD refuses those, and they are left out.
	var cw countWriter
	dumped := 0
	var lastErr error
	for _, inj := range run.Result.Injections {
		if lastErr = run.Campaign.TailVCD(inj, &cw); lastErr == nil {
			dumped++
		}
	}
	if dumped == 0 {
		return fmt.Errorf("detector probe: no injection could be dumped: %v", lastErr)
	}
	out["vcd.dump_bytes_per_inj"] = float64(cw.n) / float64(dumped)
	return nil
}
