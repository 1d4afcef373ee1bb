package main

import (
	"context"
	"strings"
	"testing"

	"repro/internal/inject"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/socgen"
)

// prepareForTest runs the workload's first design on input 0 the way a
// repetition does, and hands back the campaign itself.
func prepareForTest(w *campaignWorkload) (*inject.SoCRun, error) {
	d := w.designs[0]
	cfg, err := socgen.ConfigByIndex(d.soc)
	if err != nil {
		return nil, err
	}
	prog, err := shard.WorkloadProgram(d.kernel)
	if err != nil {
		return nil, err
	}
	return inject.RunSoC(cfg, prog, w.ec.DB, w.options(d, 0))
}

// One repetition of the in-process campaign path on the smallest design,
// traced (so the piecewise path, the counters and the cold oracle run
// too), then a second one whose recorded first digest was tampered with:
// the digest check must fire.
func TestCampaignSmokeAndDigestCheck(t *testing.T) {
	w := &campaignWorkload{designs: []design{{1, "memcpy"}}, engine: sim.KindEvent}
	if err := w.prepare(context.Background(), &runEnv{seed: 7, exact: pinned{}}); err != nil {
		t.Fatal(err)
	}
	tr := &tracer{}
	root := tr.root("rep", 0)
	s, err := w.rep(context.Background(), 0, root)
	root.end()
	if err != nil {
		t.Fatal(err)
	}
	if s.units < 100 || s.wall <= 0 || s.setup <= 0 || s.ops != 1 || s.failed != 0 {
		t.Errorf("sample: %+v", s)
	}
	for _, name := range []string{"inject.injections", "inject.evals_per_inj", "inject.evals_reduction_x", "netlist.cells"} {
		if s.layer[name] <= 0 {
			t.Errorf("traced repetition did not report %s", name)
		}
	}
	if s.layer["inject.evals_reduction_x"] < 2 {
		t.Errorf("cold replay should cost several times the warm evals, got %gx", s.layer["inject.evals_reduction_x"])
	}
	names := map[string]bool{}
	for _, sp := range tr.snapshot() {
		names[sp.Name] = true
	}
	for _, want := range []string{"socgen.generate", "netlist.flatten", "socgen.stimulus", "inject.golden", "inject.run_jobs", "cluster.cluster", "harness.cross_check", "harness.oracle"} {
		if !names[want] {
			t.Errorf("no %s span recorded", want)
		}
	}
	if c := coverage(tr.snapshot()); c < 0.95 {
		t.Errorf("spans cover %.3f of the repetition, want at least 0.95", c)
	}

	// An untraced repetition of the same input reproduces the digest...
	if _, err := w.rep(context.Background(), 0, (*tracer)(nil).root("rep", 1)); err != nil {
		t.Fatalf("same input, second repetition: %v", err)
	}
	// ...and a verdict that changed since the first repetition is caught.
	good := w.env.exact["input0.verdict_digest"]
	if len(good) != 64 || w.env.exact["input0.evals_per_inj"] == "" {
		t.Fatalf("pinned outputs: %v", w.env.exact)
	}
	w.env.exact["input0.verdict_digest"] = "0000" + good[4:]
	_, err = w.rep(context.Background(), 0, (*tracer)(nil).root("rep", 2))
	if err == nil || !strings.Contains(err.Error(), "input0.verdict_digest") {
		t.Errorf("tampered digest not caught: %v", err)
	}
}

func TestVerdictDigestSeesOneFlippedVerdict(t *testing.T) {
	w := &campaignWorkload{designs: []design{{1, "memcpy"}}, engine: sim.KindEvent}
	if err := w.prepare(context.Background(), &runEnv{seed: 7, exact: pinned{}}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.rep(context.Background(), 0, (*tracer)(nil).root("rep", 0)); err != nil {
		t.Fatal(err)
	}
	// Rebuild the same campaign by hand to get at its verdicts.
	run, err := prepareForTest(w)
	if err != nil {
		t.Fatal(err)
	}
	runs := []prepared{{w.designs[0], run}}
	pinned := w.env.exact["input0.verdict_digest"]
	if got := verdictDigest(runs); got != pinned {
		t.Fatalf("rebuilt campaign digests to %.12s, the repetition's was %.12s", got, pinned)
	}
	inj := &run.Result.Injections[len(run.Result.Injections)/2]
	inj.SoftError = !inj.SoftError
	if verdictDigest(runs) == pinned {
		t.Error("flipping one verdict left the digest unchanged")
	}
}

func TestVerdictComparisonAndTolerance(t *testing.T) {
	a := []inject.Injection{
		{CellID: 1, Path: "u.a", TimePS: 100, SoftError: true},
		{CellID: 2, Path: "u.b", TimePS: 200},
		{CellID: 3, Path: "u.c", TimePS: 300, SoftError: true},
	}
	b := append([]inject.Injection(nil), a...)
	if n, _, err := diffVerdicts(a, b); n != 0 || err != nil {
		t.Errorf("equal lists: %d differences, %v", n, err)
	}
	b[1].SoftError = true
	n, first, err := diffVerdicts(a, b)
	if n != 1 || err != nil || !strings.Contains(first, "injection 1 (u.b t=200ps)") {
		t.Errorf("one flipped verdict: %d differences, first %q, %v", n, first, err)
	}
	w := &campaignWorkload{}
	if err := w.sameVerdicts(a, b, "x", "y", 1); err != nil {
		t.Errorf("one difference within a tolerance of one: %v", err)
	}
	if err := w.sameVerdicts(a, b, "x", "y", 0); err == nil {
		t.Error("one difference with no tolerance was accepted")
	}
	b[2].SoftError = false
	if err := w.sameVerdicts(a, b, "x", "y", 1); err == nil {
		t.Error("two differences within a tolerance of one were accepted")
	}
	// Different plans are never tolerated.
	c := append([]inject.Injection(nil), a...)
	c[0].TimePS = 101
	if err := w.sameVerdicts(a, c, "x", "y", 5); err == nil {
		t.Error("a different strike time was accepted")
	}
	if err := w.sameVerdicts(a, a[:2], "x", "y", 5); err == nil {
		t.Error("a shorter list was accepted")
	}
}
