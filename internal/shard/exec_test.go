package shard

import (
	"fmt"
	"testing"

	"repro/internal/inject"
	"repro/internal/obs"
)

// countingBuilder wraps a Builder and counts Build invocations.
type countingBuilder struct {
	inner  Builder
	builds int
}

func (c *countingBuilder) Build(cs CampaignSpec, tune func(*inject.Options)) (*Built, bool, error) {
	c.builds++
	return c.inner.Build(cs, tune)
}

// TestExecutorEvictionPinsInFlight is the regression test for the
// eviction race: cache traffic on other campaigns arriving while a shard
// is mid-flight (campaign built, simulation not yet finished) used to be
// able to evict the in-flight campaign's Built — dropping golden
// checkpoints a batch still held and forcing a pointless rebuild for its
// next shard. Pinned in-flight campaigns must survive any amount of
// concurrent eviction pressure.
func TestExecutorEvictionPinsInFlight(t *testing.T) {
	cs := testSpec("EventSim", 0.05)
	fp := fpOf(t, cs)
	e := NewExecutor()
	cb := &countingBuilder{inner: LocalBuilder{}}
	e.SetBuilder(cb)
	e.Adopt(mustBuild(t, cs))
	specs, err := Plan(cs, 2, 4)
	if err != nil {
		t.Fatal(err)
	}

	e.execHook = func() {
		// Flood the cache with far more campaigns than it retains, in the
		// window between build and simulation.
		for i := 0; i < 3*maxCachedCampaigns; i++ {
			e.Adopt(&Built{Fingerprint: fmt.Sprintf("dummy-%02d", i)})
		}
	}
	if _, err := e.Execute(specs[0]); err != nil {
		t.Fatal(err)
	}
	e.execHook = nil

	e.mu.Lock()
	_, retained := e.built[fp]
	pins := len(e.pins)
	e.mu.Unlock()
	if !retained {
		t.Fatal("in-flight campaign was evicted by concurrent cache traffic")
	}
	if pins != 0 {
		t.Fatalf("%d pins leaked after ExecuteFor returned", pins)
	}
	if _, err := e.Execute(specs[1]); err != nil {
		t.Fatal(err)
	}
	if cb.builds != 0 {
		t.Fatalf("executor rebuilt an adopted campaign %d times", cb.builds)
	}
}

// fetchingBuilder serves a pre-built campaign as if fetched from the
// artifact lake.
type fetchingBuilder struct{ b *Built }

func (f fetchingBuilder) Build(CampaignSpec, func(*inject.Options)) (*Built, bool, error) {
	return f.b, true, nil
}

// TestExecutorBuilderSeamGoldenSpan pins the trace contract the fleet's
// built-exactly-once assertion rests on: a local build emits one
// "golden" span, a lake fetch emits none.
func TestExecutorBuilderSeamGoldenSpan(t *testing.T) {
	cs := testSpec("EventSim", 0.05)
	specs, err := Plan(cs, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	goldenSpans := func(tr *obs.Tracer) int {
		raw, err := tr.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		evs, err := obs.ValidateTrace(raw)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, ev := range evs {
			if ev.Name == "golden" {
				n++
			}
		}
		return n
	}

	local := NewExecutor()
	tr := obs.NewTracer()
	local.SetMetrics(nil, tr)
	pLocal, err := local.Execute(specs[0])
	if err != nil {
		t.Fatal(err)
	}
	if n := goldenSpans(tr); n != 1 {
		t.Fatalf("local build emitted %d golden spans, want 1", n)
	}

	var prebuilt *Built
	local.mu.Lock()
	prebuilt = local.built[fpOf(t, cs)]
	local.mu.Unlock()

	fetched := NewExecutor()
	tr2 := obs.NewTracer()
	fetched.SetMetrics(nil, tr2)
	fetched.SetBuilder(fetchingBuilder{b: prebuilt})
	pFetched, err := fetched.Execute(specs[0])
	if err != nil {
		t.Fatal(err)
	}
	if n := goldenSpans(tr2); n != 0 {
		t.Fatalf("lake fetch emitted %d golden spans, want 0", n)
	}
	if len(pLocal.Injections) != len(pFetched.Injections) {
		t.Fatal("fetched-campaign shard diverged from local build")
	}
	for i := range pLocal.Injections {
		if pLocal.Injections[i] != pFetched.Injections[i] {
			t.Fatalf("injection %d differs between local and fetched campaign", i)
		}
	}
}

// mapPartials is an in-memory PartialCache.
type mapPartials struct {
	store MemPartials
	puts  int
}

func (m *mapPartials) GetPartial(fp string, start, end int) *Partial {
	return m.store.GetPartial(fp, start, end)
}

func (m *mapPartials) PutPartial(fp string, p *Partial) {
	m.puts++
	cp := *p
	m.store.PutPartial(fp, &cp)
}

// TestExecutorPartialCache covers the fleet-wide memoization seam: a
// partial published for (fp, range) is adopted without re-simulation
// (with the shard index rewritten for the adopting plan), and computed
// partials are published back.
func TestExecutorPartialCache(t *testing.T) {
	cs := testSpec("EventSim", 0.05)
	fp := fpOf(t, cs)
	specs, err := Plan(cs, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	pc := &mapPartials{store: MemPartials{}}

	producer := NewExecutor()
	producer.SetPartialCache(pc)
	p0, err := producer.Execute(specs[0])
	if err != nil {
		t.Fatal(err)
	}
	if pc.puts != 1 {
		t.Fatalf("producer published %d partials, want 1", pc.puts)
	}

	// A different process replanned the same campaign so the range is the
	// same but the shard index differs.
	published := pc.store.GetPartial(fp, specs[0].Start, specs[0].End)
	published.Index = 7

	consumer := NewExecutor()
	consumer.SetPartialCache(pc)
	cb := &countingBuilder{inner: LocalBuilder{}}
	consumer.SetBuilder(cb)
	got, err := consumer.Execute(specs[0])
	if err != nil {
		t.Fatal(err)
	}
	if got.Index != specs[0].Index {
		t.Fatalf("adopted partial kept foreign shard index %d, want %d", got.Index, specs[0].Index)
	}
	if len(got.Injections) != len(p0.Injections) {
		t.Fatal("adopted partial does not match the produced one")
	}
	for i := range got.Injections {
		if got.Injections[i] != p0.Injections[i] {
			t.Fatalf("injection %d differs between produced and adopted partial", i)
		}
	}
	// The campaign still had to be built (the golden run is a separate
	// artifact), but the shard itself must not have been re-simulated —
	// puts stays at 1 because an adopted partial is not re-published.
	if pc.puts != 1 {
		t.Fatalf("consumer re-published an adopted partial (puts=%d)", pc.puts)
	}
	if cb.builds != 1 {
		t.Fatalf("consumer built %d times, want 1", cb.builds)
	}
}
