package lake

import (
	"testing"

	"repro/internal/shard"
	"repro/internal/sweep"
)

// BenchmarkAdoptTableI is the coordinator's set-up over a filled lake,
// in process: the ten Table I campaigns of the default grid built through
// the store builder in sweep order, each one adopting its golden artifact
// for planning (resolve, get, netlist generation and flattening, stimulus,
// clusters, and the artifact's header, signature and checkpoint schedule,
// with no checkpoint decoded). The lake is filled once, outside the timer. Run it
// against two commits, alternating, to A/B a set-up change without the
// process start-up and HTTP traffic of the fleet workloads:
//
//	go test ./internal/lake -run '^$' -bench AdoptTableI -count 5
func BenchmarkAdoptTableI(b *testing.B) {
	grid, err := sweep.GridParams{Kind: "table1"}.Grid()
	if err != nil {
		b.Fatal(err)
	}
	bl := NewStoreBuilder(openStore(b, b.TempDir(), 0))
	for _, it := range grid.Spec.Items {
		if _, _, err := bl.Build(it.Campaign, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, it := range grid.Spec.Items {
			if _, fetched, err := bl.Build(it.Campaign, nil); err != nil || !fetched {
				b.Fatalf("%s: fetched=%t err=%v", it.Key, fetched, err)
			}
		}
	}
}

// BenchmarkEncodeTableI is the publish side of the same grid: the ten
// Table I campaigns, built once outside the timer, each encoding its
// golden artifact as the coordinator does before publishing it. It
// reports the grid's artifact bytes beside the time:
//
//	go test ./internal/lake -run '^$' -bench EncodeTableI -count 5
func BenchmarkEncodeTableI(b *testing.B) {
	grid, err := sweep.GridParams{Kind: "table1"}.Grid()
	if err != nil {
		b.Fatal(err)
	}
	var built []*shard.Built
	for _, it := range grid.Spec.Items {
		bt, err := shard.BuildLocal(it.Campaign, nil)
		if err != nil {
			b.Fatal(err)
		}
		built = append(built, bt)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var size int
	for i := 0; i < b.N; i++ {
		size = 0
		for _, bt := range built {
			blob, err := shard.EncodeBuilt(bt)
			if err != nil {
				b.Fatal(err)
			}
			size += len(blob)
		}
	}
	b.ReportMetric(float64(size), "B/grid")
}
