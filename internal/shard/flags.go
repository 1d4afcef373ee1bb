package shard

import (
	"flag"

	"repro/internal/inject"
	"repro/internal/sim"
	"repro/internal/socgen"
)

// CampaignFlagNames is the set of flag names CampaignFlags registers,
// derived from a scratch registration so it can never drift from the
// real one. CLIs that also register sweep flags use it to reject
// command lines that set single-campaign flags under a sweep, where
// they would be silently ignored.
var CampaignFlagNames = func() map[string]bool {
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	CampaignFlags(fs)
	names := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) { names[f.Name] = true })
	return names
}()

// CampaignFlags registers the campaign-defining flags on fs and returns
// a closure that materializes the validated CampaignSpec after parsing.
// Every CLI that names a campaign (cmd/socfault, cmd/campaignd) goes
// through this one registration point, so a campaign described on either
// tool's command line produces the same spec — and therefore the same
// fingerprint, which is what lets a socfault journal resume under
// campaignd and vice versa. The defaults are the paper's, with KN 0
// resolving to the benchmark's Table I cluster count.
func CampaignFlags(fs *flag.FlagSet) func() (CampaignSpec, error) {
	soc := fs.Int("soc", 1, "Table I benchmark index (1-10)")
	workload := fs.String("workload", "memcpy", "workload kernel: memcpy, dot, crc, sort, fib")
	engine := fs.String("engine", "EventSim", "simulation engine: EventSim (VCS role) or LevelSim (CVC role)")
	let := fs.Float64("let", 37.0, "linear energy transfer (MeV·cm²/mg)")
	flux := fs.Float64("flux", 5e8, "particle flux (particles/cm²/s)")
	exposure := fs.Float64("exposure", 4e-10, "exposure window (s)")
	kn := fs.Int("kn", 0, "cluster count KN (0 = paper's value for the benchmark)")
	ln := fs.Int("ln", 3, "cluster layer depth LN")
	sample := fs.Float64("sample", 0.2, "per-cluster sampling fraction")
	minPer := fs.Int("minper", 3, "minimum sampled cells per cluster")
	seed := fs.Uint64("seed", 1, "campaign random seed")
	cold := fs.Bool("cold", false, "disable checkpoint warm starts and replay every injection from t=0")
	return func() (CampaignSpec, error) {
		cs := CampaignSpec{SoC: *soc, Workload: *workload, Params: inject.Params{
			Engine:        sim.EngineKind(*engine),
			LET:           *let,
			Flux:          *flux,
			ExposureS:     *exposure,
			KN:            *kn,
			LN:            *ln,
			SampleFrac:    *sample,
			MinPerCluster: *minPer,
			Seed:          *seed,
			ColdStart:     *cold,
		}}
		if cfg, err := socgen.ConfigByIndex(cs.SoC); err == nil && cs.KN == 0 {
			cs.KN = cfg.KN
		}
		return cs, cs.Validate()
	}
}
