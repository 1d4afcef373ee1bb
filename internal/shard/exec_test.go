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
	if _, err := e.ExecuteFor(specs[0], ""); err != nil {
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
	if _, err := e.ExecuteFor(specs[1], ""); err != nil {
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
	pLocal, err := local.ExecuteFor(specs[0], "")
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
	pFetched, err := fetched.ExecuteFor(specs[0], "")
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
