package main

import (
	"bytes"
	"errors"
	"fmt"
	"regexp"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/capi"
	"repro/internal/inject"
	"repro/internal/shard"
	"repro/internal/sweep"
)

// gatedBuilder is a shard.Builder whose builds block until the test
// releases them by campaign key. It records the start order and how many
// builds run at once, overall and per golden spec.
type gatedBuilder struct {
	keyOf    map[string]string // campaign fingerprint -> item key
	gate     map[string]chan struct{}
	opened   map[string]*sync.Once // closes gate[key] once
	started  chan string           // item keys, as builds start
	returned chan string           // item keys, as builds return

	mu        sync.Mutex
	inflight  int
	maxFlight int
	perGolden map[string]int
	overlap   bool // two builds of one golden spec ran at once
}

func newGatedBuilder(t *testing.T, items []sweep.Item) *gatedBuilder {
	fb := &gatedBuilder{
		keyOf:     map[string]string{},
		gate:      map[string]chan struct{}{},
		opened:    map[string]*sync.Once{},
		started:   make(chan string, len(items)),
		returned:  make(chan string, len(items)),
		perGolden: map[string]int{},
	}
	for _, it := range items {
		fb.keyOf[cfpOf(t, it.Campaign)] = it.Key
		fb.gate[it.Key] = make(chan struct{})
		fb.opened[it.Key] = &sync.Once{}
	}
	return fb
}

// release lets the build of key return.
func (fb *gatedBuilder) release(keys ...string) {
	for _, k := range keys {
		fb.opened[k].Do(func() { close(fb.gate[k]) })
	}
}

func (fb *gatedBuilder) Build(cs shard.CampaignSpec, _ func(*inject.Options)) (*shard.Built, bool, error) {
	fp, err := cs.Fingerprint()
	if err != nil {
		return nil, false, err
	}
	gfp, err := cs.GoldenFingerprint()
	if err != nil {
		return nil, false, err
	}
	key := fb.keyOf[fp]
	fb.mu.Lock()
	fb.inflight++
	fb.maxFlight = max(fb.maxFlight, fb.inflight)
	fb.perGolden[gfp]++
	fb.overlap = fb.overlap || fb.perGolden[gfp] > 1
	fb.mu.Unlock()
	fb.started <- key
	<-fb.gate[key]
	fb.mu.Lock()
	fb.inflight--
	fb.perGolden[gfp]--
	fb.mu.Unlock()
	fb.returned <- key
	return &shard.Built{Spec: cs, Fingerprint: fp, Jobs: make([]inject.Job, 4)}, true, nil
}

// nextKey waits for the next key on ch, a build starting or returning.
func nextKey(t *testing.T, ch <-chan string) string {
	t.Helper()
	select {
	case key := <-ch:
		return key
	case <-time.After(10 * time.Second):
		t.Fatal("no build started or returned")
		return ""
	}
}

// lockedBuffer is a log sink the test can read while drive writes to it.
type lockedBuffer struct {
	sw  *syncWriter
	buf *bytes.Buffer
}

func newLockedBuffer() lockedBuffer {
	buf := &bytes.Buffer{}
	return lockedBuffer{sw: &syncWriter{w: buf}, buf: buf}
}

var openedRE = regexp.MustCompile(`msg="campaign opened" campaign=(\S+)`)

// opened returns the keys of the "campaign opened" lines so far, in order.
func (lb lockedBuffer) opened() []string {
	lb.sw.mu.Lock()
	defer lb.sw.mu.Unlock()
	var keys []string
	for _, m := range openedRE.FindAllStringSubmatch(lb.buf.String(), -1) {
		keys = append(keys, m[1])
	}
	return keys
}

// driveFixture is a registry over a gated builder and a four-campaign
// sweep, a and c sharing a golden spec (same design, engine and
// workload, another seed), driven in the background.
func driveFixture(t *testing.T) (*gatedBuilder, lockedBuffer, *sweepRun, chan error) {
	t.Helper()
	spec := func(soc int, seed uint64) shard.CampaignSpec {
		cs := e2eSpec()
		cs.SoC, cs.Seed = soc, seed
		return cs
	}
	items := []sweep.Item{
		{Key: "a", Campaign: spec(1, 1)},
		{Key: "b", Campaign: spec(2, 1)},
		{Key: "c", Campaign: spec(1, 2)},
		{Key: "d", Campaign: spec(3, 1)},
	}
	ga, _ := items[0].Campaign.GoldenFingerprint()
	gc, _ := items[2].Campaign.GoldenFingerprint()
	if ga != gc || cfpOf(t, items[0].Campaign) == cfpOf(t, items[2].Campaign) {
		t.Fatal("fixture: a and c must share a golden spec and differ as campaigns")
	}
	ss := sweep.SweepSpec{Name: "drive", Items: items}
	pool, err := sweep.NewPoolWith(ss, time.Minute, shard.QueueConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var cfps []string
	for _, it := range items {
		cfps = append(cfps, cfpOf(t, it.Campaign))
	}
	lb := newLockedBuffer()
	g := newRegistry(serveOpts{shards: 2, leaseTTL: time.Minute}, 0, nil, nil, lb.sw)
	fb := newGatedBuilder(t, items)
	g.builder = fb
	sr := &sweepRun{fp: sfpOf(t, ss), grid: sweep.Grid{Spec: ss}, pool: pool, cfps: cfps,
		state: capi.StateRunning, stop: make(chan struct{}), finished: make(chan struct{})}
	driveErr := make(chan error, 1)
	go func() { driveErr <- g.drive(sr) }()
	// A failed assertion must not leave drive blocked on a gate.
	t.Cleanup(func() {
		sr.halt()
		fb.release("a", "b", "c", "d")
	})
	return fb, lb, sr, driveErr
}

// waitCancelled waits for drive to return errCancelled.
func waitCancelled(t *testing.T, driveErr <-chan error) {
	t.Helper()
	select {
	case err := <-driveErr:
		if !errors.Is(err, errCancelled) {
			t.Fatalf("drive returned %v, want errCancelled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drive did not return after the stop")
	}
}

// TestDriveOpensInSweepOrder pins the coordinator's concurrent set-up:
// builds run side by side (here up to three, GOMAXPROCS) but never two
// for one golden spec; campaigns open in sweep order although their
// builds finish in reverse; and a stop during builds starts no new build
// and returns only after every started build has returned.
func TestDriveOpensInSweepOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))

	t.Run("order", func(t *testing.T) {
		fb, lb, sr, driveErr := driveFixture(t)
		// a, b and d start; c waits for a, whose golden spec it shares.
		got := map[string]bool{}
		for range 3 {
			got[nextKey(t, fb.started)] = true
		}
		if !got["a"] || !got["b"] || !got["d"] {
			t.Fatalf("first three builds %v, want a, b and d", got)
		}
		for _, k := range []string{"d", "b"} {
			fb.release(k)
			if got := nextKey(t, fb.returned); got != k {
				t.Fatalf("build %q returned, want %q", got, k)
			}
		}
		fb.release("a")
		if k := nextKey(t, fb.started); k != "c" {
			t.Fatalf("build %q started after a returned, want c", k)
		}
		fb.release("c")
		for deadline := time.Now().Add(10 * time.Second); len(lb.opened()) < 4; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("opened %v, want all four", lb.opened())
			}
		}
		if got := fmt.Sprint(lb.opened()); got != "[a b c d]" {
			t.Errorf("campaigns opened in order %s, want sweep order [a b c d]", got)
		}
		sr.halt()
		waitCancelled(t, driveErr)
		fb.mu.Lock()
		defer fb.mu.Unlock()
		if fb.maxFlight < 2 {
			t.Errorf("at most %d build(s) in flight, want concurrent builds", fb.maxFlight)
		}
		if fb.overlap {
			t.Error("two builds of one golden spec ran at once")
		}
	})

	t.Run("stop", func(t *testing.T) {
		fb, lb, sr, driveErr := driveFixture(t)
		for range 3 {
			nextKey(t, fb.started)
		}
		sr.halt()
		select {
		case err := <-driveErr:
			t.Fatalf("drive returned (%v) with three builds still running", err)
		case <-time.After(50 * time.Millisecond):
		}
		fb.release("a", "b", "d")
		waitCancelled(t, driveErr)
		if returned := len(fb.returned); returned != 3 {
			t.Errorf("drive returned with %d of 3 builds returned", returned)
		}
		select {
		case k := <-fb.started:
			t.Errorf("build %q started after the stop", k)
		default:
		}
		if opened := lb.opened(); len(opened) != 0 {
			t.Errorf("campaigns %v opened after the stop", opened)
		}
	})
}
