package inject

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/riscv"
	"repro/internal/sim"
	"repro/internal/socgen"
	"repro/internal/vcd"
)

// sameInstantOptions are the Table I campaign options for SoC3 (KN 8,
// sample 0.2, at least 3 per cluster) under campaign seed 11000042, whose
// drawn plan holds an injection at sameInstantJob that puts a faulty
// output transition exactly on a sampling instant.
func sameInstantOptions() Options {
	o := DefaultOptions()
	o.KN, o.LN = 8, 4
	o.SampleFrac, o.MinPerCluster = 0.2, 3
	o.Seed = 11000042
	return o
}

// sameInstantJob is the plan index of a 92 ps SET on u_mem.u_g_19 at
// 23749 ps: on EventSim the faulty rd_parity rises at 23888 ps and falls at
// exactly 23980 ps, sampleTime(6).
const sameInstantJob = 121

func prepDot(t testing.TB, opts Options) *SoCRun {
	t.Helper()
	cfg, err := socgen.ConfigByIndex(3)
	if err != nil {
		t.Fatal(err)
	}
	run, err := PrepareSoC(cfg, riscv.DotProductProgram(16), fault.DefaultDB(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// TestSameInstantTransitionVerdict pins the sampling-instant rule on an
// injection whose faulty output falls exactly at sampleTime(6): on
// EventSim the value sampled at cycle k is the value before any
// transition the run itself creates at sampleTime(k), so the run is a
// soft error. Cold and warm signature campaigns, cold and warm VCD
// campaigns, VerifyWithVCD and a TailVCD dump diffed against the golden
// dump must all give that one verdict.
func TestSameInstantTransitionVerdict(t *testing.T) {
	type verdict struct {
		name string
		soft bool
	}
	var got []verdict
	var inj Injection
	for _, mode := range []struct {
		name             string
		cold, compareVCD bool
	}{
		{"cold/signature", true, false},
		{"cold/VCD", true, true},
		{"checkpoint/signature", false, false},
		{"checkpoint/VCD-campaign", false, true},
	} {
		opts := sameInstantOptions()
		opts.ColdStart, opts.CompareVCD = mode.cold, mode.compareVCD
		run := prepDot(t, opts)
		res := &Result{}
		if err := run.Campaign.RunJobs(res, sameInstantJob, sameInstantJob+1); err != nil {
			t.Fatal(err)
		}
		if warm := res.WarmStarts == 1; warm == mode.cold {
			t.Fatalf("%s: %d warm starts", mode.name, res.WarmStarts)
		}
		inj = res.Injections[0]
		got = append(got, verdict{mode.name, inj.SoftError})
		if !mode.cold && mode.compareVCD {
			c := run.Campaign
			var dump bytes.Buffer
			if err := c.TailVCD(inj, &dump); err != nil {
				t.Fatal(err)
			}
			faulty, err := vcd.Parse(&dump)
			if err != nil {
				t.Fatal(err)
			}
			golden, err := vcd.Parse(bytes.NewReader(c.goldenVCDDump))
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, verdict{"checkpoint/VCD-dump", c.compareCaptured(golden, faulty)})
			soft, err := c.VerifyWithVCD(inj)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, verdict{"VerifyWithVCD", soft})
		}
	}
	if inj.Path != "u_mem.u_g_19" || inj.TimePS != 23749 || inj.PulsePS != 92 {
		t.Fatalf("plan drifted: injection %d is %+v", sameInstantJob, inj)
	}
	for _, v := range got {
		if v.soft != got[0].soft {
			t.Errorf("verdicts split: %v", got)
			break
		}
	}
	if !got[0].soft {
		t.Errorf("the faulty output differs at sampleTime(6), yet every detector calls the run masked")
	}
}

// TestStartDetectorAgree runs every injection of a fixed plan window —
// the same-instant reproducer among them — and the plan's first six
// checkpoint-start SEUs through all four start × detector combinations of
// the one pipeline, on both engines, and requires one verdict per
// injection. A crafted SET whose release lands exactly on a sampling
// instant, on a net that is itself a monitored output, pins the
// engine-specific half of the sampling rule: EventSim samples ahead of the
// release (soft error), LevelSim after its step settles (masked). It also
// pins what lets warm VCD campaigns diff against c.golden: the golden
// dump, read by the sampling rule, is the golden signature. On LevelSim
// the SEUs also run together as one lane group, and each lane's verdict
// must be the one the four combinations agree on.
func TestStartDetectorAgree(t *testing.T) {
	for _, engine := range []sim.EngineKind{sim.KindEvent, sim.KindLevel} {
		t.Run(string(engine), func(t *testing.T) {
			opts := sameInstantOptions()
			opts.Engine, opts.CompareVCD = engine, true
			c := prepDot(t, opts).Campaign

			golden, err := c.goldenTrace()
			if err != nil {
				t.Fatal(err)
			}
			for k := 2; k <= c.cycles(); k++ {
				for i, nid := range c.plan.Monitors {
					if got, want := c.sampled(golden.Signals[c.flat.Nets[nid].Name], k), c.golden.row(k - 2)[i]; got != want {
						t.Fatalf("golden dump samples %v for %s at cycle %d, golden signature %v", got, c.flat.Nets[nid].Name, k, want)
					}
				}
			}

			// The window around the reproducer, then the plan's first six
			// checkpoint-start SEUs.
			var injs []Injection
			seuCount := 0
			for i, j := range c.DrawJobs() {
				inj, err := c.injection(j)
				if err != nil {
					t.Fatal(err)
				}
				_, ckIdx := c.checkpointBefore(j.TimePS)
				if i >= sameInstantJob-6 && i < sameInstantJob+6 {
					injs = append(injs, inj)
				} else if inj.Kind == fault.SEU && ckIdx >= 0 && seuCount < 6 {
					injs = append(injs, inj)
					seuCount++
				}
			}
			crafted := craftedReleaseAtSample(t, c)
			injs = append(injs, crafted)

			var seus []Injection
			var seuCks []int
			var seuSoft []bool
			for _, inj := range injs {
				_, ckIdx := c.checkpointBefore(inj.TimePS)
				if ckIdx < 0 {
					t.Fatalf("%s at %dps precedes every checkpoint", inj.Path, inj.TimePS)
				}
				var got []bool
				for _, start := range []int{-1, ckIdx} {
					for _, det := range []detector{&sigDetector{c: c}, &vcdDetector{c: c}} {
						soft, err := (&worker{c: c}).run(&inj, start, det)
						if err != nil {
							t.Fatal(err)
						}
						got = append(got, soft)
					}
				}
				for _, v := range got[1:] {
					if v != got[0] {
						t.Fatalf("%s at %dps: [cold/sig cold/vcd ckpt/sig ckpt/vcd] = %v", inj.Path, inj.TimePS, got)
					}
				}
				if inj == crafted && got[0] != (engine == sim.KindEvent) {
					t.Errorf("release at a sampling instant on a monitored net: soft error %v on %s", got[0], engine)
				}
				if inj.Kind == fault.SEU {
					seus, seuCks, seuSoft = append(seus, inj), append(seuCks, ckIdx), append(seuSoft, got[0])
				}
			}
			if engine != sim.KindLevel {
				return
			}
			if len(seus) < 2 {
				t.Fatalf("%d SEUs in the window: the lane start goes unpinned", len(seus))
			}
			soft, ok := (&worker{c: c}).runLanes(seus, slices.Min(seuCks), seuCks)
			if !ok {
				t.Fatal("the lanes refused the window's SEUs")
			}
			for i, inj := range seus {
				if got := soft>>(i+1)&1 != 0; got != seuSoft[i] {
					t.Errorf("%s at %dps: lane start soft error %v, the other starts %v", inj.Path, inj.TimePS, got, seuSoft[i])
				}
			}
		})
	}
}

// craftedReleaseAtSample builds an SET on a combinational cell that drives
// a monitored output directly, timed so its release lands exactly on the
// sampling instant of a mid-plan cycle.
func craftedReleaseAtSample(t *testing.T, c *Campaign) Injection {
	t.Helper()
	monitored := map[int]bool{}
	for _, nid := range c.plan.Monitors {
		monitored[nid] = true
	}
	for _, fc := range c.flat.Cells {
		if fc.Def.IsSequential() || len(fc.Out) == 0 || !monitored[fc.Out[0]] {
			continue
		}
		const width = 100
		return Injection{CellID: fc.ID, Path: fc.Path, Kind: fault.SET,
			TimePS: c.sampleTime(c.cycles()/2) - 1 - width, PulsePS: width}
	}
	t.Fatal("no combinational cell drives a monitored output")
	return Injection{}
}
