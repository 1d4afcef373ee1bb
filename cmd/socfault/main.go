// Command socfault runs single-particle fault-injection campaigns on the
// Table I benchmarks and prints the soft-error reports.
//
// Usage:
//
//	socfault -soc 1 [-engine EventSim|LevelSim] [-let 37] [-flux 5e8]
//	         [-kn 5] [-ln 3] [-sample 0.2] [-seed 1] [-workload memcpy]
//	         [-shards 4] [-journal run.jsonl] [-resume]
//	socfault -sweep table1|table3|let [-lets 1,37,100] [-fluxes 4e8,..]
//	         [-sweep-soc 1] [-quick] [-shards 4] [-journal grid.jsonl] [-resume]
//	socfault -sweep table1 -submit http://coordinator:8372 [-watch]
//
// With -shards N each campaign executes as N independent shards of its
// pre-drawn injection plan (same result, bit for bit — the shape
// cmd/campaignd distributes over HTTP). With -journal every completed
// shard is appended to an on-disk journal; -resume reloads it after a
// crash and re-executes only the missing shards.
//
// With -sweep a whole experiment grid — Table I across all ten
// benchmarks, Table III's fluxes x engines, or a LET sweep — runs as one
// sharded, journaled sweep and renders the experiment's table. The grid
// enumerates exactly the campaign fingerprints a `campaignd serve
// -sweep` coordinator serves, so the same journal resumes under either
// tool and both render identical bytes.
//
// With -submit the very same grid is not run here at all: its
// declarative description is POSTed to a running campaignd coordinator,
// progress is watched until the fleet drains it, and the rendered
// result — byte-identical to the local -sweep run — is fetched and
// printed. Adding -watch swaps the polling loop for the coordinator's
// live SSE event stream: one line per shard lease/completion as it
// happens, a cost summary at the end, and automatic fallback to
// polling against a coordinator that cannot stream.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"repro/internal/capi"
	"repro/internal/runstore"
	"repro/internal/shard"
	"repro/internal/sweep"
)

// cliConfig is the parsed and validated command line.
type cliConfig struct {
	spec    shard.CampaignSpec
	grid    *sweep.Grid      // non-nil: run a whole experiment grid
	params  sweep.GridParams // the grid's declarative description (with grid)
	submit  string           // non-empty: POST the grid to this coordinator
	watch   bool             // with submit: follow the live SSE event stream
	ckpt    int
	shards  int
	journal string
	resume  bool
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fatal(err)
	}
	if err := run(cfg); err != nil {
		fatal(err)
	}
}

// parseFlags builds the validated run configuration. The campaign-
// defining flags are registered through shard.CampaignFlags, the same
// registration cmd/campaignd uses, so a campaign named on either command
// line produces the same spec and fingerprint. Every bad flag or flag
// combination is rejected here with an actionable message, before any
// netlist is generated or simulation started.
func parseFlags(args []string) (*cliConfig, error) {
	fs := flag.NewFlagSet("socfault", flag.ContinueOnError)
	specOf := shard.CampaignFlags(fs)
	paramsOf := sweep.GridParamsFlags(fs)
	ckpt := fs.Int("ckpt", 0, "golden checkpoint pitch in cycles for warm-started injections (0 = default)")
	shards := fs.Int("shards", 1, "execute each campaign as this many independent shards (same result, bit for bit)")
	journal := fs.String("journal", "", "append each completed shard to this journal file")
	resume := fs.Bool("resume", false, "reload -journal and skip shards it already records")
	submit := fs.String("submit", "", "submit the -sweep grid to the campaignd coordinator at this URL instead of running it here, watch its progress, and print the fetched results")
	watch := fs.Bool("watch", false, "with -submit: follow the coordinator's live event stream (SSE) for per-shard progress instead of polling, and print the sweep's cost summary")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	cfg := &cliConfig{
		submit:  *submit,
		watch:   *watch,
		ckpt:    *ckpt,
		shards:  *shards,
		journal: *journal,
		resume:  *resume,
	}
	params, isSweep, err := paramsOf()
	if err != nil {
		return nil, err
	}
	if isSweep {
		cfg.params = params
		grid, err := params.Grid()
		if err != nil {
			return nil, err
		}
		cfg.grid = &grid
	} else {
		if *submit != "" {
			return nil, fmt.Errorf("-submit needs -sweep: only whole grids are submitted to a coordinator")
		}
		if cfg.spec, err = specOf(); err != nil {
			return nil, err
		}
	}
	if *submit != "" {
		// Everything below tunes local execution; on a submit the fleet's
		// coordinator owns journaling and sharding, so a local flag would
		// be silently dead weight.
		for name, val := range map[string]bool{"-journal": *journal != "", "-resume": *resume, "-ckpt": *ckpt != 0, "-shards": *shards != 1} {
			if val {
				return nil, fmt.Errorf("%s has no effect with -submit: the coordinator owns execution", name)
			}
		}
	} else if *watch {
		return nil, fmt.Errorf("-watch needs -submit: only a coordinator streams live events")
	}
	if *ckpt < 0 {
		return nil, fmt.Errorf("-ckpt %d must not be negative", *ckpt)
	}
	if *shards < 1 {
		return nil, fmt.Errorf("-shards %d must be at least 1", *shards)
	}
	if *resume && *journal == "" {
		return nil, fmt.Errorf("-resume needs -journal: there is no journal to resume from")
	}
	if *journal != "" && !*resume {
		// Refuse to silently double-run a campaign (or grid) whose journal
		// already holds shards a resume would restore; the user either
		// wants -resume or a fresh file.
		spec := sweep.CampaignGrid(cfg.spec).Spec
		if cfg.grid != nil {
			spec = cfg.grid.Spec
		}
		fps, err := spec.Fingerprints()
		if err != nil {
			return nil, err
		}
		held, _, err := runstore.LoadAll(*journal)
		if err != nil {
			return nil, err
		}
		n := 0
		for fp := range fps {
			n += len(held[fp])
		}
		if n > 0 {
			return nil, fmt.Errorf("journal %s already records %d shards of this run; pass -resume to continue it or remove the file", *journal, n)
		}
	}
	return cfg, nil
}

func run(cfg *cliConfig) error {
	if cfg.submit != "" {
		return submitSweep(cfg)
	}
	if cfg.grid == nil {
		// A lone campaign rides the sweep path as a one-cell grid, keeping
		// strict shard-count validation.
		grid := sweep.CampaignGrid(cfg.spec)
		cfg.grid = &grid
	}
	return runSweep(cfg)
}

// runSweep executes a whole experiment grid in this process — every
// campaign sharded, journaled and resumable — and renders the
// experiment's table from the merged results, byte-identical to both the
// in-process ssresf drivers and a campaignd sweep coordinator
// serving the same grid.
func runSweep(cfg *cliConfig) error {
	results, err := sweep.RunLocal(cfg.grid.Spec, sweep.LocalOptions{
		Shards:     cfg.shards,
		Journal:    cfg.journal,
		Resume:     cfg.resume,
		Checkpoint: cfg.ckpt,
		Logf: func(format string, args ...any) {
			// A grid narrates on stderr; a lone campaign's resume notice has
			// always preceded its report on stdout.
			w := os.Stderr
			if cfg.grid.Spec.Single {
				w = os.Stdout
			}
			fmt.Fprintf(w, format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	return cfg.grid.Render(os.Stdout, results)
}

// submitSweep is the fleet path: POST the grid's declarative
// description to a running coordinator, watch per-campaign progress
// until the worker fleet drains it, fetch the rendered results and
// print them — byte-identical to runSweep on the same flags, because
// the coordinator resolves the description through the same grid
// constructors.
func submitSweep(cfg *cliConfig) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	client := capi.NewClient(cfg.submit)
	reply, err := client.Submit(ctx, cfg.params)
	if err != nil {
		return err
	}
	verb := "submitted to"
	if !reply.Created {
		verb = "already on"
	}
	fmt.Fprintf(os.Stderr, "socfault: sweep %s (%.12s, %d campaigns) %s %s\n",
		reply.Name, reply.Fingerprint, reply.Campaigns, verb, cfg.submit)
	var st capi.SweepStatus
	if cfg.watch {
		// Live path: follow the coordinator's SSE event stream. Every
		// lease, completion and fence prints as it happens; the client
		// reconnects through drops and falls back to polling against a
		// coordinator that cannot stream.
		st, err = client.WatchSweep(ctx, reply.Fingerprint, func(ev capi.SweepEvent) {
			line := ev.Type
			if ev.Campaign != "" {
				line = fmt.Sprintf("%s %s shard %d", ev.Type, ev.Campaign, ev.Shard)
				if ev.Worker != "" {
					line += " @" + ev.Worker
				}
			}
			fmt.Fprintf(os.Stderr, "socfault: [%d/%d] %s\n", ev.CampaignsDone, ev.CampaignsTotal, line)
		})
	} else {
		lastDone := -1
		st, err = client.WaitSweep(ctx, reply.Fingerprint, func(st capi.SweepStatus) {
			if st.Progress.CampaignsDone != lastDone {
				lastDone = st.Progress.CampaignsDone
				fmt.Fprintf(os.Stderr, "socfault: %d/%d campaigns done\n", st.Progress.CampaignsDone, st.Progress.CampaignsTotal)
			}
		})
	}
	if err != nil {
		return err
	}
	if cfg.watch && st.Cost != nil {
		c := st.Cost
		fmt.Fprintf(os.Stderr, "socfault: cost: %d shards, %d evals, %v simulated, %d warm starts (%v restore), %d pruned runs\n",
			c.Shards, c.InjectEvals, time.Duration(c.InjectWallNS).Round(time.Millisecond),
			c.WarmStarts, time.Duration(c.RestoreWallNS).Round(time.Millisecond), c.PrunedRuns)
	}
	switch st.State {
	case capi.StateDone:
	case capi.StateCancelled:
		return fmt.Errorf("sweep %.12s was cancelled on the coordinator", reply.Fingerprint)
	default:
		return fmt.Errorf("sweep %.12s %s on the coordinator: %s", reply.Fingerprint, st.State, st.Error)
	}
	rendered, err := client.Results(ctx, reply.Fingerprint)
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(rendered)
	return err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "socfault:", err)
	os.Exit(1)
}
