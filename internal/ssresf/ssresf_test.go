package ssresf

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/socgen"
)

func quickConfig() ExperimentConfig {
	ec := DefaultExperimentConfig(true)
	ec.Inject.SampleFrac = 0.06
	return ec
}

func analyze(t *testing.T, idx int) *Analysis {
	t.Helper()
	ec := quickConfig()
	cfg, err := socgen.ConfigByIndex(idx)
	if err != nil {
		t.Fatal(err)
	}
	an, err := AnalyzeSoC(cfg, ec.Workload, ec.DB, ec.OptionsFor(idx))
	if err != nil {
		t.Fatal(err)
	}
	return an
}

func TestAnalyzeBuildsDataset(t *testing.T) {
	an := analyze(t, 1)
	ds := an.Dataset
	if len(ds.X.Rows) != len(an.Run.Flat.Cells) {
		t.Fatalf("dataset rows %d != cells %d", len(ds.X.Rows), len(an.Run.Flat.Cells))
	}
	if len(ds.Y) != len(ds.X.Rows) {
		t.Fatal("label count mismatch")
	}
	pos := ds.PositiveCount()
	if pos == 0 || pos == len(ds.Y) {
		t.Fatalf("degenerate labels: %d of %d positive", pos, len(ds.Y))
	}
}

func TestTrainAndPredict(t *testing.T) {
	an := analyze(t, 1)
	cls, err := Train(an.Dataset, TrainOptions{Folds: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(cls.Selected) != 6 {
		t.Errorf("default selection must keep the paper's 6 features, got %v", cls.Selected)
	}
	if cls.TrainCV.Accuracy() < 0.6 {
		t.Errorf("CV accuracy %v suspiciously low", cls.TrainCV.Accuracy())
	}
	pred, dur, err := cls.Predict(an.Run.Flat)
	if err != nil {
		t.Fatal(err)
	}
	if len(pred) != len(an.Run.Flat.Cells) {
		t.Fatal("prediction count mismatch")
	}
	if dur <= 0 {
		t.Error("prediction time not measured")
	}
	// Decision values must be consistent with predictions.
	scores, err := cls.DecisionValues(an.Run.Flat)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pred {
		if (scores[i] > 0) != pred[i] {
			t.Fatal("decision values inconsistent with predictions")
		}
	}
}

func TestFig5Sweep(t *testing.T) {
	an := analyze(t, 1)
	pts, err := Fig5(an.Dataset, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 10 {
		t.Fatalf("%d sweep points, want 10", len(pts))
	}
	best := BestFeatureCount(pts)
	if best < 1 || best > 10 {
		t.Fatalf("best feature count %d out of range", best)
	}
	for i, p := range pts {
		if p.NumFeatures != i+1 {
			t.Errorf("point %d has k=%d", i, p.NumFeatures)
		}
		if p.CVScore < 0 || p.CVScore > 1 {
			t.Errorf("score %v out of range", p.CVScore)
		}
	}
	var buf bytes.Buffer
	RenderFig5(&buf, pts)
	if !strings.Contains(buf.String(), "best feature count") {
		t.Error("Fig5 rendering incomplete")
	}
}

func TestFig6ROC(t *testing.T) {
	an := analyze(t, 1)
	cls, err := Train(an.Dataset, TrainOptions{Folds: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	curve, auc, err := Fig6(cls, an)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) < 3 {
		t.Fatalf("ROC curve has %d points", len(curve))
	}
	if auc < 0.6 {
		t.Errorf("AUC %v — classifier no better than chance", auc)
	}
	var buf bytes.Buffer
	RenderFig6(&buf, curve, auc)
	if !strings.Contains(buf.String(), "AUC") {
		t.Error("Fig6 rendering incomplete")
	}
}

func TestTableISubsetTrends(t *testing.T) {
	// Running all ten benchmarks is the bench harness's job; here a
	// focused subset checks the headline trends: SoC1 (SRAM) vs SoC2
	// (DRAM) memory ordering, and SoC10 rad-hard collapse.
	ec := quickConfig()
	rows, err := TableI(ec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("%d rows", len(rows))
	}
	byIdx := map[int]TableIRow{}
	for _, r := range rows {
		byIdx[r.Index] = r
	}
	// Rad-hard SRAM must have far lower memory SER than same-size SRAM.
	if byIdx[10].MemSER >= byIdx[9].MemSER/2 {
		t.Errorf("rad-hard memory SER %.4f not well below SRAM %.4f", byIdx[10].MemSER, byIdx[9].MemSER)
	}
	// Cross-sections must grow with SoC complexity.
	if byIdx[10].SEUXsect <= byIdx[1].SEUXsect {
		t.Errorf("SEU xsect must grow: SoC1 %.3e vs SoC10 %.3e", byIdx[1].SEUXsect, byIdx[10].SEUXsect)
	}
	if byIdx[9].SETXsect <= byIdx[1].SETXsect {
		t.Errorf("SET xsect must grow: SoC1 %.3e vs SoC9 %.3e", byIdx[1].SETXsect, byIdx[9].SETXsect)
	}
	// Cluster counts match the paper's column.
	for _, cfg := range socgen.TableIConfigs() {
		if byIdx[cfg.Index].Clusters != cfg.KN {
			t.Errorf("SoC%d clusters = %d, want %d", cfg.Index, byIdx[cfg.Index].Clusters, cfg.KN)
		}
	}
	var buf bytes.Buffer
	RenderTableI(&buf, rows)
	if !strings.Contains(buf.String(), "PULP SoC10") {
		t.Error("Table I rendering incomplete")
	}
}

func TestTableIISubset(t *testing.T) {
	ec := quickConfig()
	rows, avg, err := TableII(ec, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Metrics.Accuracy < 0.55 {
			t.Errorf("SoC%d accuracy %.3f below any useful classifier", r.Index, r.Metrics.Accuracy)
		}
	}
	if avg.Accuracy == 0 {
		t.Error("average row missing")
	}
	var buf bytes.Buffer
	RenderTableII(&buf, rows, avg)
	if !strings.Contains(buf.String(), "Average") {
		t.Error("Table II rendering incomplete")
	}
}

func TestTableIIITwoFluxes(t *testing.T) {
	ec := quickConfig()
	// Accuracy compares module counts between independent campaigns, so
	// the test needs enough samples per run to estimate them.
	ec.Inject.SampleFrac = 0.12
	rows, avg, err := TableIII(ec, []float64{4e8, 6e8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.SpeedupVCS <= 1 || r.SpeedupCVC <= 1 {
			t.Errorf("flux %.0e: model must be faster than simulation (VCS %.2f, CVC %.2f)",
				r.Flux, r.SpeedupVCS, r.SpeedupCVC)
		}
		if r.Accuracy < 0.5 {
			t.Errorf("flux %.0e: accuracy %.3f", r.Flux, r.Accuracy)
		}
	}
	// Higher flux means more injections, hence longer simulation.
	if rows[1].VCSRuntime <= rows[0].VCSRuntime/2 {
		t.Errorf("runtime should grow with flux: %v vs %v", rows[0].VCSRuntime, rows[1].VCSRuntime)
	}
	if avg.SpeedupVCS == 0 {
		t.Error("average row missing")
	}
	var buf bytes.Buffer
	RenderTableIII(&buf, rows, avg)
	if !strings.Contains(buf.String(), "Avg.") {
		t.Error("Table III rendering incomplete")
	}
}

func TestFig7Distribution(t *testing.T) {
	ec := quickConfig()
	rows, err := Fig7(ec, []float64{5e8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 { // one flux + the SVM row
		t.Fatalf("%d rows", len(rows))
	}
	last := rows[len(rows)-1]
	if last.Source != "SVM Classifier" {
		t.Errorf("last row is %q", last.Source)
	}
	for _, r := range rows {
		for _, mod := range []string{"Memory", "Bus", "CPU Logic"} {
			if _, ok := r.Percent[mod]; !ok {
				t.Errorf("row %s missing module %s", r.Source, mod)
			}
		}
	}
	var buf bytes.Buffer
	RenderFig7(&buf, rows)
	if !strings.Contains(buf.String(), "SVM Classifier") {
		t.Error("Fig7 rendering incomplete")
	}
}

func TestLETSweepMonotoneXsect(t *testing.T) {
	ec := quickConfig()
	pts, err := LETSweep(ec, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("%d points, want 3 standard LETs", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].LET <= pts[i-1].LET {
			t.Fatal("LET points out of order")
		}
		if pts[i].SEUXsect <= pts[i-1].SEUXsect {
			t.Errorf("SEU xsect must grow with LET: %g -> %g", pts[i-1].SEUXsect, pts[i].SEUXsect)
		}
		if pts[i].SETXsect <= pts[i-1].SETXsect {
			t.Errorf("SET xsect must grow with LET: %g -> %g", pts[i-1].SETXsect, pts[i].SETXsect)
		}
	}
	var buf bytes.Buffer
	RenderLETSweep(&buf, 1, pts)
	if !strings.Contains(buf.String(), "LET sensitivity sweep") {
		t.Error("LET sweep rendering incomplete")
	}
}
