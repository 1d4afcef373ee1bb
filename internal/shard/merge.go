package shard

import (
	"fmt"
	"sort"

	"repro/internal/inject"
)

// Merge assembles shard partials into the full campaign result. Partials
// may arrive in any order and may contain exact duplicates (a journal
// replay racing a live worker); Merge sorts them by plan range, drops
// duplicates, verifies the ranges tile the whole plan with no gap or
// overlap, concatenates the injections in plan order and aggregates. The
// outcome is bit-identical to the single-process Campaign.Run result for
// any shard count — sharding only ever partitions the pre-drawn plan.
func Merge(b *Built, partials []*Partial) (*inject.Result, error) {
	ps := make([]*Partial, 0, len(partials))
	for _, p := range partials {
		if p == nil {
			continue
		}
		ps = append(ps, p)
	}
	sort.SliceStable(ps, func(i, j int) bool { return ps[i].Start < ps[j].Start })

	base := b.Run.Result
	res := &inject.Result{
		Design:      base.Design,
		Engine:      base.Engine,
		Options:     base.Options,
		Modules:     map[string]*inject.ModuleStats{},
		ClusterOf:   base.ClusterOf,
		GoldenWall:  base.GoldenWall,
		GoldenEvals: base.GoldenEvals,
	}
	next := 0
	for _, p := range ps {
		if p.Start < next && p.End <= next {
			// Duplicate of an already-merged range; deterministic execution
			// makes it byte-equal, so it carries nothing new.
			continue
		}
		if p.Start != next {
			return nil, fmt.Errorf("shard: merge gap or overlap at injection %d (next partial covers [%d,%d))", next, p.Start, p.End)
		}
		if len(p.Injections) != p.End-p.Start {
			return nil, fmt.Errorf("shard: partial [%d,%d) carries %d injections", p.Start, p.End, len(p.Injections))
		}
		res.Injections = append(res.Injections, p.Injections...)
		res.Work.Add(p.Work)
		next = p.End
	}
	if next != len(b.Jobs) {
		return nil, fmt.Errorf("shard: partials cover %d of %d planned injections", next, len(b.Jobs))
	}
	b.Run.Campaign.Aggregate(res)
	return res, nil
}
