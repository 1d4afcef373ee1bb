package inject

import (
	"fmt"
	"sort"
	"strings"
)

// LabelCells derives the per-cell sensitivity labels the SVM trains on,
// following the paper's rule: clusters are ranked by sampled soft-error
// probability, and every circuit node inside an above-threshold cluster is
// labeled highly sensitive. threshold is an absolute cluster-SER cutoff;
// pass r.ChipSER to use "above chip average", the default rule. A cluster
// verdict additionally requires at least two observed soft errors, so a
// single lucky hit cannot blanket-label hundreds of nodes — the
// corroboration requirement that keeps labels stable across campaign seeds.
func (r *Result) LabelCells(threshold float64) []bool {
	sensitiveCluster := make([]bool, len(r.Clusters))
	for i, cs := range r.Clusters {
		sensitiveCluster[i] = cs.SER > threshold && cs.SoftErrors >= 2
	}
	labels := make([]bool, len(r.ClusterOf))
	for cellID, ci := range r.ClusterOf {
		labels[cellID] = sensitiveCluster[ci]
	}
	return labels
}

// LabelCellsRefined derives per-cell labels with the sampled cells'
// individual outcomes overriding their cluster verdict: a sampled node is
// highly sensitive exactly when its own injection manifested, while
// unsampled nodes inherit the cluster rule of LabelCells. This is the
// "manual classification rule" the paper applies to the node list before
// SVM training, and it is what keeps the learning problem non-trivial —
// clusters alone are perfectly recoverable from hierarchy features.
func (r *Result) LabelCellsRefined(threshold float64) []bool {
	labels := r.LabelCells(threshold)
	for _, inj := range r.Injections {
		labels[inj.CellID] = inj.SoftError
	}
	return labels
}

// ClustersBySER returns cluster indices sorted by ascending sampled SER,
// the ordering step of the paper's sensitive-node extraction.
func (r *Result) ClustersBySER() []int {
	idx := make([]int, len(r.Clusters))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return r.Clusters[idx[a]].SER < r.Clusters[idx[b]].SER
	})
	return idx
}

// ModuleNames returns the report's module names in a fixed order.
func (r *Result) ModuleNames() []string {
	names := make([]string, 0, len(r.Modules))
	for n := range r.Modules {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SoftErrorCount returns the total observed soft errors.
func (r *Result) SoftErrorCount() int {
	n := 0
	for _, inj := range r.Injections {
		if inj.SoftError {
			n++
		}
	}
	return n
}

// String renders a human-readable campaign report.
func (r *Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "campaign %s on %s: %d injections, %d soft errors, chip SER %.4f\n",
		r.Engine, r.Design, len(r.Injections), r.SoftErrorCount(), r.ChipSER)
	fmt.Fprintf(&sb, "  golden %v (%d evals), injections %v (%d evals)\n",
		r.GoldenWall, r.GoldenEvals, r.InjectWall, r.InjectEvals)
	if r.WarmStarts > 0 {
		fmt.Fprintf(&sb, "  warm starts %d/%d, %d runs pruned (latching window, re-convergence or quiet proof), %v restore wall\n",
			r.WarmStarts, len(r.Injections), r.PrunedRuns, r.RestoreWall)
	}
	fmt.Fprintf(&sb, "  SET xsect %.3e cm²  SEU xsect %.3e cm²\n", r.SETXsect, r.SEUXsect)
	for _, name := range r.ModuleNames() {
		m := r.Modules[name]
		fmt.Fprintf(&sb, "  module %-10s cells=%-5d sampled=%-4d manifest=%.3f lambda=%.4f SER=%.4f%%\n",
			m.Name, m.Cells, m.Sampled, m.Manifest, m.Lambda, m.SERPercent)
	}
	for _, cs := range r.Clusters {
		fmt.Fprintf(&sb, "  cluster %-3d cells=%-5d sampled=%-4d errors=%-3d SER=%.3f\n",
			cs.Index, cs.Cells, cs.Sampled, cs.SoftErrors, cs.SER)
	}
	return sb.String()
}
