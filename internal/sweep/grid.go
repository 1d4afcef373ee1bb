package sweep

import (
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/fault"
	"repro/internal/inject"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/socgen"
	"repro/internal/ssresf"
)

// Grid couples a sweep's campaign enumeration with the aggregation that
// turns the merged per-campaign results back into the experiment's
// rendered artifact. Render consumes results keyed by campaign
// fingerprint — exactly what RunLocal and a campaignd sweep coordinator
// produce — and writes the same bytes the in-process ssresf driver
// would, because both funnel through the shared ssresf row/point
// assembly on results that merge bit-identically.
type Grid struct {
	Spec   SweepSpec
	Render func(w io.Writer, results map[string]*inject.Result) error
}

// pick resolves one item's merged result by campaign identity.
func pick(results map[string]*inject.Result, it Item) (*inject.Result, error) {
	fp, err := it.Campaign.Fingerprint()
	if err != nil {
		return nil, err
	}
	r, ok := results[fp]
	if !ok || r == nil {
		return nil, fmt.Errorf("sweep: no merged result for campaign %q (%.12s)", it.Key, fp)
	}
	return r, nil
}

// CampaignGrid wraps one campaign as a degenerate (Single) sweep whose
// rendered artifact is the classic campaign report — what lets a lone
// campaign ride every sweep path, local or coordinated.
func CampaignGrid(cs shard.CampaignSpec) Grid {
	it := Item{Key: fmt.Sprintf("soc%d-%s", cs.SoC, cs.Workload), Campaign: cs}
	return Grid{
		Spec: SweepSpec{Name: "campaign", Items: []Item{it}, Single: true},
		Render: func(w io.Writer, results map[string]*inject.Result) error {
			r, err := pick(results, it)
			if err != nil {
				return err
			}
			_, err = fmt.Fprint(w, r.String())
			return err
		},
	}
}

// TableIGrid enumerates the paper's Table I: the soft-error campaign on
// all ten SoC benchmarks, each at its Table I cluster count. workload
// names the RISC-V kernel; the constructor resolves it and overwrites
// ec.Workload with the same program, so campaign fingerprints and any
// in-process comparison always describe one kernel.
func TableIGrid(ec ssresf.ExperimentConfig, workload string) (Grid, error) {
	if err := resolveWorkload(&ec, workload); err != nil {
		return Grid{}, err
	}
	var items []Item
	for _, cfg := range socgen.TableIConfigs() {
		items = append(items, Item{
			Key:      fmt.Sprintf("soc%d", cfg.Index),
			Campaign: shard.SpecFromOptions(cfg.Index, workload, ec.OptionsFor(cfg.Index)),
		})
	}
	spec := SweepSpec{Name: "table1", Items: items}
	return Grid{
		Spec: spec,
		Render: func(w io.Writer, results map[string]*inject.Result) error {
			byIdx := make(map[int]*inject.Result, len(items))
			for _, it := range items {
				r, err := pick(results, it)
				if err != nil {
					return err
				}
				byIdx[it.Campaign.SoC] = r
			}
			rows, err := ssresf.TableIFromResults(byIdx)
			if err != nil {
				return err
			}
			ssresf.RenderTableI(w, rows)
			return nil
		},
	}, nil
}

// resolveWorkload pins the config's workload program to the named
// kernel — the single source the campaign specs fingerprint.
func resolveWorkload(ec *ssresf.ExperimentConfig, workload string) error {
	prog, err := shard.WorkloadProgram(workload)
	if err != nil {
		return err
	}
	ec.Workload = prog
	return nil
}

// LETGrid enumerates the LET sensitivity sweep: the same campaign on one
// benchmark at each given LET (nil means the database's tabulated LETs).
func LETGrid(ec ssresf.ExperimentConfig, socIdx int, lets []float64, workload string) (Grid, error) {
	if err := resolveWorkload(&ec, workload); err != nil {
		return Grid{}, err
	}
	if len(lets) == 0 {
		lets = fault.StandardLETs
	}
	lets = append([]float64{}, lets...)
	var items []Item
	for _, let := range lets {
		opts := ec.OptionsFor(socIdx)
		opts.LET = let
		items = append(items, Item{
			Key:      fmt.Sprintf("soc%d-let%g", socIdx, let),
			Campaign: shard.SpecFromOptions(socIdx, workload, opts),
		})
	}
	spec := SweepSpec{Name: fmt.Sprintf("let-soc%d", socIdx), Items: items}
	return Grid{
		Spec: spec,
		Render: func(w io.Writer, results map[string]*inject.Result) error {
			byLET := make(map[float64]*inject.Result, len(items))
			for i, it := range items {
				r, err := pick(results, it)
				if err != nil {
					return err
				}
				byLET[lets[i]] = r
			}
			pts, err := ssresf.LETSweepFromResults(lets, byLET)
			if err != nil {
				return err
			}
			ssresf.RenderLETSweep(w, socIdx, pts)
			return nil
		},
	}, nil
}

// TableIIIGrid enumerates the runtime-comparison grid: the SoC1 base
// campaign (classifier training data) plus, for every flux, one
// campaign per engine. The ML phase runs at aggregation time in the
// rendering process; only the simulation campaigns distribute.
func TableIIIGrid(ec ssresf.ExperimentConfig, fluxes []float64, workload string) (Grid, error) {
	if err := resolveWorkload(&ec, workload); err != nil {
		return Grid{}, err
	}
	if len(fluxes) == 0 {
		fluxes = ssresf.TableIIIFluxes
	}
	fluxes = append([]float64{}, fluxes...)
	base := Item{Key: "t3-base", Campaign: shard.SpecFromOptions(1, workload, ec.OptionsFor(1))}
	items := []Item{base}
	evItems := make([]Item, len(fluxes))
	lvItems := make([]Item, len(fluxes))
	for i, flux := range fluxes {
		opts := ec.TableIIIFluxOptions(flux)
		opts.Engine = sim.KindEvent
		evItems[i] = Item{Key: fmt.Sprintf("t3-flux%g-event", flux), Campaign: shard.SpecFromOptions(1, workload, opts)}
		opts.Engine = sim.KindLevel
		lvItems[i] = Item{Key: fmt.Sprintf("t3-flux%g-level", flux), Campaign: shard.SpecFromOptions(1, workload, opts)}
		items = append(items, evItems[i], lvItems[i])
	}
	spec := SweepSpec{Name: "table3", Items: items}
	return Grid{
		Spec: spec,
		Render: func(w io.Writer, results map[string]*inject.Result) error {
			baseRes, err := pick(results, base)
			if err != nil {
				return err
			}
			ev := make(map[float64]*inject.Result, len(fluxes))
			lv := make(map[float64]*inject.Result, len(fluxes))
			for i, flux := range fluxes {
				if ev[flux], err = pick(results, evItems[i]); err != nil {
					return err
				}
				if lv[flux], err = pick(results, lvItems[i]); err != nil {
					return err
				}
			}
			rows, avg, err := ssresf.TableIIIFromResults(ec, fluxes, baseRes, ev, lv)
			if err != nil {
				return err
			}
			ssresf.RenderTableIII(w, rows, avg)
			return nil
		},
	}, nil
}

// Concat joins grids into one sweep: the campaign lists concatenate in
// order and rendering emits each member grid's artifact in sequence —
// e.g. the LET sweeps of two benchmarks drained by one worker fleet.
func Concat(name string, grids ...Grid) Grid {
	var items []Item
	for _, g := range grids {
		items = append(items, g.Spec.Items...)
	}
	return Grid{
		Spec: SweepSpec{Name: name, Items: items},
		Render: func(w io.Writer, results map[string]*inject.Result) error {
			for _, g := range grids {
				if err := g.Render(w, results); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// GridParams is the declarative, wire-format description of a grid: the
// kind plus the handful of parameters the GridParamsFlags surface exposes. It
// is what a client POSTs to a coordinator to submit a sweep, and Grid()
// funnels it through the exact constructors the CLIs use — so a grid
// submitted over the wire, named on a socfault command line, or served
// by campaignd resolves to identical campaign fingerprints, which is
// what makes their journals interchangeable and their rendered outputs
// byte-comparable. Zero values mean the defaults the flags document:
// workload "memcpy", SoC 1, and each grid's own LET/flux set.
type GridParams struct {
	// Kind selects the grid: "table1" (all benchmarks), "table3"
	// (fluxes x engines on SoC1) or "let" (LET sweep on one benchmark).
	Kind     string    `json:"kind"`
	SoC      int       `json:"soc,omitempty"`    // let: benchmark index (0 = 1)
	LETs     []float64 `json:"lets,omitempty"`   // let: points (nil = tabulated)
	Fluxes   []float64 `json:"fluxes,omitempty"` // table3: fluxes (nil = the paper's)
	Workload string    `json:"workload,omitempty"`
	Quick    bool      `json:"quick,omitempty"` // reduced-sampling experiment config
}

// Grid materializes and validates the described grid.
func (p GridParams) Grid() (Grid, error) {
	workload := p.Workload
	if workload == "" {
		workload = "memcpy"
	}
	soc := p.SoC
	if soc == 0 {
		soc = 1
	}
	ec := ssresf.DefaultExperimentConfig(p.Quick)
	var g Grid
	var err error
	switch p.Kind {
	case "table1":
		g, err = TableIGrid(ec, workload)
	case "table3":
		g, err = TableIIIGrid(ec, p.Fluxes, workload)
	case "let":
		g, err = LETGrid(ec, soc, p.LETs, workload)
	default:
		return Grid{}, fmt.Errorf("unknown sweep kind %q (want table1, table3 or let)", p.Kind)
	}
	if err != nil {
		return Grid{}, err
	}
	if err := g.Spec.Validate(); err != nil {
		return Grid{}, err
	}
	return g, nil
}

// GridParamsFlags registers the sweep-defining flags on fs and returns a
// closure that lifts them into a GridParams after parsing (ok is false
// when no sweep was requested). Like shard.CampaignFlags, this is the
// one registration point every CLI that names a sweep goes through —
// cmd/socfault running (or submitting) a grid and cmd/campaignd serving
// it to a worker fleet parse identical flags into identical campaign
// fingerprints, which is what lets one journal resume under either tool
// and makes their outputs byte-comparable.
func GridParamsFlags(fs *flag.FlagSet) func() (GridParams, bool, error) {
	mode := fs.String("sweep", "", "experiment grid to run as one sweep: table1 (all benchmarks), table3 (fluxes x engines on SoC1), let (LET sweep)")
	socIdx := fs.Int("sweep-soc", 1, "benchmark the LET sweep runs on")
	lets := fs.String("lets", "", "comma-separated LET points for -sweep let (default: the database's tabulated LETs)")
	fluxes := fs.String("fluxes", "", "comma-separated fluxes for -sweep table3 (default: the paper's five)")
	workload := fs.String("sweep-workload", "memcpy", "workload kernel every sweep campaign runs")
	quick := fs.Bool("quick", false, "reduced sampling (the fast-test experiment config) for every sweep campaign")
	return func() (GridParams, bool, error) {
		if *mode == "" {
			return GridParams{}, false, nil
		}
		// A sweep derives every campaign from the grid flags; a
		// single-campaign flag set alongside -sweep would be silently
		// ignored and the grid would answer a different question than the
		// user asked. Reject the combination outright.
		var conflicts []string
		fs.Visit(func(f *flag.Flag) {
			if shard.CampaignFlagNames[f.Name] {
				conflicts = append(conflicts, "-"+f.Name)
			}
		})
		if len(conflicts) > 0 {
			return GridParams{}, false, fmt.Errorf("single-campaign flag(s) %s have no effect under -sweep; use the sweep flags (-sweep-soc, -lets, -fluxes, -sweep-workload, -quick)",
				strings.Join(conflicts, " "))
		}
		ls, err := parseFloats(*lets)
		if err != nil {
			return GridParams{}, false, fmt.Errorf("-lets: %v", err)
		}
		fl, err := parseFloats(*fluxes)
		if err != nil {
			return GridParams{}, false, fmt.Errorf("-fluxes: %v", err)
		}
		return GridParams{
			Kind:     *mode,
			SoC:      *socIdx,
			LETs:     ls,
			Fluxes:   fl,
			Workload: *workload,
			Quick:    *quick,
		}, true, nil
	}
}

// parseFloats parses a comma-separated float list; empty means nil
// (each grid substitutes its own default set).
func parseFloats(s string) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}
