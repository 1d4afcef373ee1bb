package sweep

import (
	"bytes"
	"flag"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/inject"
	"repro/internal/runstore"
	"repro/internal/shard"
	"repro/internal/ssresf"
	"repro/internal/xrand"
)

// quickEC is the reduced-sampling experiment config every sweep test
// grids over; memcpy matches shard.WorkloadProgram("memcpy").

// cfpOf computes a campaign fingerprint, failing the test on error.
func cfpOf(t *testing.T, cs shard.CampaignSpec) string {
	t.Helper()
	fp, err := cs.Fingerprint()
	if err != nil {
		t.Fatalf("campaign fingerprint: %v", err)
	}
	return fp
}

// sfpOf computes a sweep fingerprint, failing the test on error.
func sfpOf(t *testing.T, ss SweepSpec) string {
	t.Helper()
	fp, err := ss.Fingerprint()
	if err != nil {
		t.Fatalf("sweep fingerprint: %v", err)
	}
	return fp
}

func quickEC() ssresf.ExperimentConfig {
	return ssresf.DefaultExperimentConfig(true)
}

// testLETs keeps the test grids at two small campaigns.
var testLETs = []float64{1.0, 37.0}

// mustGrid returns an unwrapper for grid constructor results.
func mustGrid(t *testing.T) func(Grid, error) Grid {
	return func(g Grid, err error) Grid {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
}

func TestSweepSpecValidate(t *testing.T) {
	if _, err := LETGrid(quickEC(), 1, testLETs, "quicksort3"); err == nil {
		t.Error("unknown workload kernel accepted")
	}
	ok := mustGrid(t)(LETGrid(quickEC(), 1, testLETs, "memcpy")).Spec
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid sweep rejected: %v", err)
	}
	if err := (SweepSpec{Name: "empty"}).Validate(); err == nil {
		t.Error("empty sweep accepted")
	}
	dupKey := SweepSpec{Name: "dup", Items: []Item{
		{Key: "x", Campaign: ok.Items[0].Campaign},
		{Key: "x", Campaign: ok.Items[1].Campaign},
	}}
	if err := dupKey.Validate(); err == nil {
		t.Error("duplicate key accepted")
	}
	dupCampaign := SweepSpec{Name: "dup", Items: []Item{
		{Key: "x", Campaign: ok.Items[0].Campaign},
		{Key: "y", Campaign: ok.Items[0].Campaign},
	}}
	if err := dupCampaign.Validate(); err == nil {
		t.Error("duplicate campaign accepted")
	}
	bad := ok.Items[0].Campaign
	bad.Engine = "Verilator"
	if err := (SweepSpec{Name: "bad", Items: []Item{{Key: "x", Campaign: bad}}}).Validate(); err == nil {
		t.Error("invalid member campaign accepted")
	}
}

func TestSweepFingerprintIdentity(t *testing.T) {
	a := mustGrid(t)(LETGrid(quickEC(), 1, testLETs, "memcpy")).Spec
	b := mustGrid(t)(LETGrid(quickEC(), 1, testLETs, "memcpy")).Spec
	if sfpOf(t, a) != sfpOf(t, b) {
		t.Fatal("equal grids produced different sweep fingerprints")
	}
	// Key/name cosmetics do not change identity; campaign content does.
	renamed := a
	renamed.Name = "other"
	if sfpOf(t, renamed) != sfpOf(t, a) {
		t.Fatal("sweep name leaked into the fingerprint")
	}
	c := mustGrid(t)(LETGrid(quickEC(), 1, []float64{1.0, 100.0}, "memcpy")).Spec
	if sfpOf(t, a) == sfpOf(t, c) {
		t.Fatal("different LET grids share a sweep fingerprint")
	}
	d := mustGrid(t)(LETGrid(quickEC(), 2, testLETs, "memcpy")).Spec
	if sfpOf(t, a) == sfpOf(t, d) {
		t.Fatal("different benchmarks share a sweep fingerprint")
	}
}

// TestGridFlagsMatchConstructors pins the CLI contract: a grid named on
// a command line (socfault or campaignd, both register GridFlags)
// enumerates exactly the campaigns the programmatic constructors do —
// equal fingerprints are what let one journal resume under either tool.
func TestGridFlagsMatchConstructors(t *testing.T) {
	parse := func(args ...string) (Grid, bool, error) {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		gridOf := GridFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return gridOf()
	}
	if _, ok, err := parse(); err != nil || ok {
		t.Fatalf("no -sweep: got ok=%v err=%v", ok, err)
	}
	if _, _, err := parse("-sweep", "tableX"); err == nil {
		t.Fatal("unknown sweep mode accepted")
	}
	if _, _, err := parse("-sweep", "let", "-lets", "1,zap"); err == nil {
		t.Fatal("malformed -lets accepted")
	}

	ec := quickEC()
	g, ok, err := parse("-sweep", "let", "-lets", "1,37", "-quick")
	if err != nil || !ok {
		t.Fatalf("let grid: ok=%v err=%v", ok, err)
	}
	if want := sfpOf(t, mustGrid(t)(LETGrid(ec, 1, testLETs, "memcpy")).Spec); sfpOf(t, g.Spec) != want {
		t.Fatal("flag-built LET grid diverges from the constructor")
	}
	g, _, err = parse("-sweep", "table1", "-quick")
	if err != nil {
		t.Fatal(err)
	}
	if want := sfpOf(t, mustGrid(t)(TableIGrid(ec, "memcpy")).Spec); sfpOf(t, g.Spec) != want {
		t.Fatal("flag-built Table I grid diverges from the constructor")
	}
	if len(g.Spec.Items) != 10 {
		t.Fatalf("Table I grid enumerates %d campaigns, want 10", len(g.Spec.Items))
	}
	g, _, err = parse("-sweep", "table3", "-fluxes", "4e8,5e8", "-quick")
	if err != nil {
		t.Fatal(err)
	}
	if want := sfpOf(t, mustGrid(t)(TableIIIGrid(ec, []float64{4e8, 5e8}, "memcpy")).Spec); sfpOf(t, g.Spec) != want {
		t.Fatal("flag-built Table III grid diverges from the constructor")
	}
	if len(g.Spec.Items) != 5 { // base + 2 fluxes x 2 engines
		t.Fatalf("Table III grid enumerates %d campaigns, want 5", len(g.Spec.Items))
	}
}

// referenceResults runs every campaign of the grid in-process,
// un-sharded — the oracle all sweep execution paths must match bit for
// bit.
func referenceResults(t *testing.T, ss SweepSpec) map[string]*inject.Result {
	t.Helper()
	out := map[string]*inject.Result{}
	for _, it := range ss.Items {
		b, err := shard.Build(it.Campaign)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Run.Campaign.Run(b.Run.Result); err != nil {
			t.Fatal(err)
		}
		out[b.Fingerprint] = b.Run.Result
	}
	return out
}

// TestSweepDeterminism is the sweep-level determinism gate, the
// grid-axis sibling of TestShardedCampaignDeterminism: a whole
// experiment grid executed through the cross-campaign pool — several
// workers with independent executors, interleaved campaigns, shuffled
// completion order, one lease expiring mid-shard, the sweep killed
// half-way and resumed from its journal by fresh workers — must merge
// every campaign bit-identically to the single-process runs, and the
// resumed half must never re-simulate a journaled shard.
func TestSweepDeterminism(t *testing.T) {
	grid := mustGrid(t)(LETGrid(quickEC(), 1, testLETs, "memcpy"))
	ss := grid.Spec
	ref := referenceResults(t, ss)

	// The "coordinator process": builds each campaign once to plan (and
	// later merge); its builds are distinct from every worker's.
	coord := make([]*shard.Built, len(ss.Items))
	plans := make([][]shard.Spec, len(ss.Items))
	for i, it := range ss.Items {
		b, err := shard.Build(it.Campaign)
		if err != nil {
			t.Fatal(err)
		}
		coord[i] = b
		if plans[i], err = shard.PlanAtMost(it.Campaign, 3, len(b.Jobs)); err != nil {
			t.Fatal(err)
		}
	}

	journal := filepath.Join(t.TempDir(), "sweep.jsonl")
	store, err := runstore.Open(journal)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1000, 0)
	ttl := time.Minute
	rng := xrand.New(99)

	// First life: three workers lease from the pool; every executed
	// shard is journaled, but the pool is abandoned ("killed") with
	// roughly half the sweep complete — including one shard whose lease
	// expired mid-execution and was therefore re-issued.
	pool1, err := NewPool(ss, ttl)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ss.Items {
		if _, err := pool1.Open(i, plans[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	workers := []*shard.Executor{shard.NewExecutor(), shard.NewExecutor(), shard.NewExecutor()}
	totalShards := 0
	for _, p := range plans {
		totalShards += len(p)
	}
	type doneShard struct {
		fp      string
		leaseID string
		p       *shard.Partial
	}
	var stash []doneShard
	journaled := map[string]bool{} // "fp/index" of journaled shards
	completeOne := func(d doneShard, at time.Time) {
		t.Helper()
		if err := pool1.Complete(d.fp, d.leaseID, 0, d.p, at); err != nil {
			t.Fatal(err)
		}
		if err := store.Append(d.fp, d.p); err != nil {
			t.Fatal(err)
		}
		journaled[fmt.Sprintf("%s/%d", d.fp, d.p.Index)] = true
	}

	// One worker leases and goes silent past the TTL: its shard must be
	// re-issued to (and completed by) another worker, and its own late
	// result must be refused as a duplicate.
	doomed, ok := pool1.Lease("doomed", now)
	if !ok {
		t.Fatal("doomed lease refused")
	}
	doomedPartial, err := workers[2].Execute(doomed.Spec)
	if err != nil {
		t.Fatal(err)
	}
	now = now.Add(ttl + time.Second) // lease expires

	// Two live workers drain half the sweep in shuffled order.
	half := totalShards / 2
	for len(stash) < half {
		w := rng.Intn(2)
		l, ok := pool1.Lease(fmt.Sprintf("w%d", w), now)
		if !ok {
			break
		}
		p, err := workers[w].Execute(l.Spec)
		if err != nil {
			t.Fatal(err)
		}
		stash = append(stash, doneShard{fp: l.Spec.Fingerprint, leaseID: l.ID, p: p})
	}
	for _, i := range rng.Sample(len(stash), len(stash)) {
		completeOne(stash[i], now)
	}
	// The doomed worker's late completion: either its shard was re-drawn
	// and finished by a live worker (duplicate, refused) or it is still
	// open (accepted) — both keep the merge bit-identical.
	if err := pool1.Complete(doomed.Spec.Fingerprint, doomed.ID, 0, doomedPartial, now); err == nil {
		if err := store.Append(doomed.Spec.Fingerprint, doomedPartial); err != nil {
			t.Fatal(err)
		}
		journaled[fmt.Sprintf("%s/%d", doomed.Spec.Fingerprint, doomedPartial.Index)] = true
	}
	if pool1.Done() {
		t.Fatal("sweep completed before the induced kill; grid too small for the test")
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life: a fresh pool loads the journal, marks recorded shards
	// done, and two fresh workers (fresh golden runs) drain the rest in
	// shuffled completion order. No journaled shard may lease again.
	pool2, err := NewPool(ss, ttl)
	if err != nil {
		t.Fatal(err)
	}
	loaded, _, err := runstore.LoadAll(journal)
	if err != nil {
		t.Fatal(err)
	}
	restored := 0
	for i := range ss.Items {
		n, err := pool2.Open(i, plans[i], loaded)
		if err != nil {
			t.Fatal(err)
		}
		restored += n
	}
	if restored != len(journaled) {
		t.Fatalf("journal restored %d shards, want %d", restored, len(journaled))
	}
	fresh := []*shard.Executor{shard.NewExecutor(), shard.NewExecutor()}
	var stash2 []doneShard
	for {
		w := rng.Intn(2)
		l, ok := pool2.Lease(fmt.Sprintf("r%d", w), now)
		if !ok {
			break
		}
		if journaled[fmt.Sprintf("%s/%d", l.Spec.Fingerprint, l.Spec.Index)] {
			t.Fatalf("journaled shard %d of %.12s re-leased after resume", l.Spec.Index, l.Spec.Fingerprint)
		}
		p, err := fresh[w].Execute(l.Spec)
		if err != nil {
			t.Fatal(err)
		}
		stash2 = append(stash2, doneShard{fp: l.Spec.Fingerprint, leaseID: l.ID, p: p})
	}
	for _, i := range rng.Sample(len(stash2), len(stash2)) {
		d := stash2[i]
		if err := pool2.Complete(d.fp, d.leaseID, 0, d.p, now); err != nil {
			t.Fatal(err)
		}
	}
	if !pool2.Done() {
		t.Fatal("resumed sweep did not complete")
	}

	// Per-campaign merge on the coordinator's builds: bit-identical to
	// the single-process campaigns, and the grid renders identically to
	// the in-process ssresf driver.
	results := map[string]*inject.Result{}
	for i := range ss.Items {
		res, err := shard.Merge(coord[i], pool2.Partials(i))
		if err != nil {
			t.Fatal(err)
		}
		results[coord[i].Fingerprint] = res
		if err := shard.EquivalentResults(ref[coord[i].Fingerprint], res); err != nil {
			t.Fatalf("campaign %q diverges from single-process: %v", ss.Items[i].Key, err)
		}
	}
	var got, want bytes.Buffer
	if err := grid.Render(&got, results); err != nil {
		t.Fatal(err)
	}
	if err := grid.Render(&want, ref); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("sweep-rendered grid diverges from reference:\n%s\nvs\n%s", got.String(), want.String())
	}
}

// TestRunLocalMatchesInProcess pins the local sweep path end to end: a
// sharded, journaled RunLocal renders byte-identically to the classic
// in-process ssresf driver, and a resumed RunLocal re-executes nothing.
func TestRunLocalMatchesInProcess(t *testing.T) {
	ec := quickEC()
	grid := mustGrid(t)(LETGrid(ec, 1, testLETs, "memcpy"))
	journal := filepath.Join(t.TempDir(), "sweep.jsonl")

	var lines []string
	results, err := RunLocal(grid.Spec, LocalOptions{
		Shards:  2,
		Journal: journal,
		Logf:    func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != len(grid.Spec.Items) {
		t.Fatalf("RunLocal logged %d campaigns, want %d", len(lines), len(grid.Spec.Items))
	}
	var got bytes.Buffer
	if err := grid.Render(&got, results); err != nil {
		t.Fatal(err)
	}

	pts, err := ssresf.LETSweep(ec, 1, testLETs)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	ssresf.RenderLETSweep(&want, 1, pts)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("local sweep output diverges from in-process LETSweep:\n%s\nvs\n%s", got.String(), want.String())
	}

	// Resume: everything comes from the journal; outputs stay identical.
	resumed, err := RunLocal(grid.Spec, LocalOptions{Shards: 2, Journal: journal, Resume: true,
		Logf: func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }})
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range grid.Spec.Items {
		fp := cfpOf(t, it.Campaign)
		if err := shard.EquivalentResults(results[fp], resumed[fp]); err != nil {
			t.Fatalf("resumed campaign %q diverges: %v", it.Key, err)
		}
	}
	for _, line := range lines[len(grid.Spec.Items):] {
		if !bytes.Contains([]byte(line), []byte("2 resumed")) {
			t.Fatalf("resumed run re-executed shards: %q", line)
		}
	}
}

// TestGridParamsMatchFlagsAndConstructors pins the wire contract the
// submit API rides on: a GridParams resolved server-side enumerates
// exactly the fingerprints the same grid gets from the CLI flags and
// the programmatic constructors — the property that makes a submitted
// sweep's results byte-comparable to `socfault -sweep` and lets one
// journal resume under any of the three paths.
func TestGridParamsMatchFlagsAndConstructors(t *testing.T) {
	cases := []struct {
		name   string
		params GridParams
		args   []string
	}{
		{"let", GridParams{Kind: "let", SoC: 1, LETs: testLETs, Workload: "memcpy", Quick: true},
			[]string{"-sweep", "let", "-lets", "1,37", "-quick"}},
		{"table1", GridParams{Kind: "table1", Workload: "memcpy", Quick: true},
			[]string{"-sweep", "table1", "-quick"}},
		{"table3", GridParams{Kind: "table3", Fluxes: []float64{4e8, 5e8}, Workload: "memcpy", Quick: true},
			[]string{"-sweep", "table3", "-fluxes", "4e8,5e8", "-quick"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fromParams, err := tc.params.Grid()
			if err != nil {
				t.Fatal(err)
			}
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			gridOf := GridFlags(fs)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			fromFlags, ok, err := gridOf()
			if err != nil || !ok {
				t.Fatalf("flags: ok=%v err=%v", ok, err)
			}
			if sfpOf(t, fromParams.Spec) != sfpOf(t, fromFlags.Spec) {
				t.Fatal("params-built grid diverges from the flag-built grid")
			}
		})
	}
	// Zero values mean the documented defaults.
	dflt, err := GridParams{Kind: "let"}.Grid()
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := GridParams{Kind: "let", SoC: 1, Workload: "memcpy"}.Grid()
	if err != nil {
		t.Fatal(err)
	}
	if sfpOf(t, dflt.Spec) != sfpOf(t, explicit.Spec) {
		t.Fatal("zero-value GridParams diverge from the explicit defaults")
	}
	if _, err := (GridParams{Kind: "table9"}).Grid(); err == nil {
		t.Fatal("unknown grid kind accepted")
	}
	if _, err := (GridParams{Kind: "let", Workload: "quicksort3"}).Grid(); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestPoolCancel pins the cancellation contract: a cancelled pool
// refuses all further leases but keeps accepting completions of shards
// already out, so a mid-flight worker's delivery stays journal-worthy.
func TestPoolCancel(t *testing.T) {
	g := mustGrid(t)(LETGrid(quickEC(), 1, testLETs, "memcpy"))
	pool, err := NewPool(g.Spec, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	cs := g.Spec.Items[0].Campaign
	specs, err := shard.Plan(cs, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Open(0, specs, nil); err != nil {
		t.Fatal(err)
	}
	now := time.Unix(0, 0)
	held, ok := pool.Lease("w1", now)
	if !ok {
		t.Fatal("fresh pool refused a lease")
	}
	pool.Cancel()
	if !pool.Cancelled() {
		t.Fatal("Cancelled() false after Cancel")
	}
	if _, ok := pool.Lease("w2", now); ok {
		t.Fatal("cancelled pool granted a lease")
	}
	p := &shard.Partial{Index: held.Spec.Index, Start: held.Spec.Start, End: held.Spec.End,
		Injections: make([]inject.Injection, held.Spec.End-held.Spec.Start)}
	if err := pool.Complete(held.Spec.Fingerprint, held.ID, 0, p, now.Add(time.Second)); err != nil {
		t.Fatalf("completion of a leased shard refused after cancel: %v", err)
	}
	if _, err := pool.Renew(held.Spec.Fingerprint, held.ID, now.Add(time.Second)); err == nil {
		t.Fatal("renew of a completed shard's lease accepted")
	}
}

// TestTableIGridFingerprints pins the ten campaign fingerprints of the
// Table I grid (`-sweep table1`, with and without -quick), which each
// read their cluster count from socgen's Table I rows: journals and lake
// keys of every Table I sweep are filed under them.
func TestTableIGridFingerprints(t *testing.T) {
	want := map[bool][]string{
		false: {
			"e73533c02c765553fa024db324e80705e18ba9c55cf5cd2897841f8521b32958",
			"3e6d6d68be87da2950b03acb77cbc6e844f4c78df2dd79fc9bf1c7c981fbb974",
			"3823d8dbd58802ae7cc72cb2ec68f60bcc5d83486ba9a8796439d70c7dae0de0",
			"cf67a237d704ec5caeabe5b49a8669bc8723d060b53fad9a28fd0a52ae0228f4",
			"b8cc1e6691d6d7ba8893bf31491952dfb6729da9c904d74bffcf2e54d6b27022",
			"45663072e777a9d9a5826a2615689256248e6d1faa907052fe3724ed3fc74c93",
			"6aec48e2ccab94f94e8884e074615692748eb399d287cb46ef0854254148ce9d",
			"e083e9b7d975d07ef2ea739a1616d1e3eebdab98e47822798e8d54b80d69b894",
			"40e835c7705444d7547bcb4cd02d66bba7c263684146b2baf4118f1130f0d8f0",
			"3a58e7f0f02125901993e6a2efac95df7c59a15c3f55db1b0dab9c8bf028d061",
		},
		true: {
			"170c6eeef05cef0230a7b6bea69d534407ae4c6ff4fc1832ce39464cf8d32849",
			"1f36beb32091a53cf8f5220d3040eb0662892df0317ff7e33744567de4d800f9",
			"270f08dace1e4005540e8a205442f3a790483ac055c3cfc0af4344c60f746d04",
			"afc26278ccb01c4c3d3ebe34bd1dc5c1a49251c3913265d22d7ea3b50c4f6d0f",
			"2521d9e3d04f1430faeba8dc91b37540f55ab64aea2eeeb281c829e156c8da96",
			"ef5f96a69ad50c282cac9d0043a88633265606d65ab522def605e1fb8818e9e0",
			"b683bb283b1fcb67188422c8b29df23fbc88cea26d6021bc43043e724785cda9",
			"6e5c629d8e925371ac899a01f00321b7a400a33f79e391195155fdae6974a54d",
			"31554f894b6c65978ef8ba4b51a17cc1293b7d2d6361ce3c5df4ca85853076a1",
			"8e7c0ac65541821f210f86d2e1366b46e6f2f390ca4f0424fbe8e2ef9bbe55e0",
		},
	}
	for quick, fps := range want {
		g := mustGrid(t)(TableIGrid(ssresf.DefaultExperimentConfig(quick), "memcpy"))
		if len(g.Spec.Items) != len(fps) {
			t.Fatalf("quick=%v: %d campaigns, want %d", quick, len(g.Spec.Items), len(fps))
		}
		for i, it := range g.Spec.Items {
			if got := cfpOf(t, it.Campaign); got != fps[i] {
				t.Errorf("quick=%v SoC%d spec %+v fingerprints %s, want %s", quick, it.Campaign.SoC, it.Campaign, got, fps[i])
			}
		}
	}
}
