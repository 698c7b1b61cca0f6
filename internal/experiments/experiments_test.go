package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/ksan-net/ksan/internal/engine"
	"github.com/ksan-net/ksan/internal/report"
	"github.com/ksan-net/ksan/internal/workload"
)

// The tests in this file assert the qualitative shapes the paper reports —
// who wins, in which locality regime, and how trends move with k — at the
// quick scale, so the full suite stays honest under refactoring.

func TestKAryTableShapes(t *testing.T) {
	sc := Quick
	tr := workload.Temporal(sc.TemporalNodes, sc.Requests, 0.5, 3)
	res, err := KAryTableCtx(context.Background(), engine.New(), "shape", tr, sc)
	if err != nil {
		t.Fatal(err)
	}

	// Row 1 trend: routing cost decreases as k grows (Tables 1-7).
	if !(res.Routing[10] < res.Routing[3] && res.Routing[3] < res.Routing[2]) {
		t.Errorf("routing not decreasing in k: %v", res.Routing)
	}
	// The static full tree's distance also decreases with k.
	if !(res.FullDist[10] < res.FullDist[2]) {
		t.Errorf("full tree distance not decreasing in k: %v", res.FullDist)
	}
	// The optimal tree is never worse than the full tree on the same trace.
	for _, k := range sc.Ks {
		if res.OptDist[k] > 0 && res.OptDist[k] > res.FullDist[k] {
			t.Errorf("k=%d: optimal %d worse than full %d", k, res.OptDist[k], res.FullDist[k])
		}
	}
	// Table formatting: one column per k plus the label column.
	if got, want := len(res.Table.Header), len(sc.Ks)+1; got != want {
		t.Errorf("header has %d columns, want %d", got, want)
	}
	if len(res.Table.Rows) != 4 {
		t.Errorf("expected 4 rows, got %d", len(res.Table.Rows))
	}
}

func TestKAryTableSkipsOptimalBeyondLimit(t *testing.T) {
	sc := Quick
	sc.OptMaxN = 10 // force the skip
	tr := workload.Uniform(32, 2000, 1)
	res, err := KAryTableCtx(context.Background(), engine.New(), "skip", tr, sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range sc.Ks {
		if res.OptDist[k] != 0 {
			t.Errorf("k=%d: optimal computed despite the limit", k)
		}
	}
	for _, cell := range res.Table.Rows[2][1:] {
		if cell != "-" {
			t.Errorf("optimal row cell %q, want '-' (paper's Facebook column)", cell)
		}
	}
}

func TestTable8LocalityTrend(t *testing.T) {
	sc := Quick
	w := MakeWorkloads(sc)
	rows, tbl, err := Table8Ctx(context.Background(), engine.New(), w, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("Table 8 must have 8 workloads, got %d", len(rows))
	}
	byName := map[string]Table8Row{}
	for _, r := range rows {
		byName[r.Workload] = r
	}
	// The paper's Section 5.2 observations:
	// (1) 3-SplayNet degrades against SplayNet as temporal locality rises.
	r25 := byName["Temporal 0.25"].SplayAvg / byName["Temporal 0.25"].CentroidAvg
	r90 := byName["Temporal 0.90"].SplayAvg / byName["Temporal 0.90"].CentroidAvg
	if r25 <= r90 {
		t.Errorf("SplayNet/3SN ratio must fall with locality: p=0.25 %.3f vs p=0.9 %.3f", r25, r90)
	}
	// (2) static trees lose badly at high locality (full binary ratio > 1.5
	// at p=0.9) and win at low locality (< 1 on uniform).
	if f := byName["Temporal 0.90"].FullAvg / byName["Temporal 0.90"].CentroidAvg; f < 1.5 {
		t.Errorf("full tree should lose at p=0.9, ratio %.2f", f)
	}
	if f := byName["Uniform"].FullAvg / byName["Uniform"].CentroidAvg; f > 1 {
		t.Errorf("full tree should win on uniform, ratio %.2f", f)
	}
	// (3) the static optimal tree is never worse than the full tree.
	for name, r := range byName {
		if r.OptAvg > r.FullAvg*1.0001 {
			t.Errorf("%s: optimal %.3f worse than full %.3f", name, r.OptAvg, r.FullAvg)
		}
	}
	// The Facebook row must fall back to the approximation at quick scale
	// when n exceeds the DP limit.
	if sc.FBNodes > sc.OptMaxN && !byName["Facebook"].OptApproxima {
		t.Error("Facebook row should be flagged approx")
	}
	if !strings.Contains(tbl.Render(), "3-SplayNet") {
		t.Error("table header missing 3-SplayNet")
	}
}

func TestCentroidOptimalityExperiment(t *testing.T) {
	tbl, all, err := CentroidOptimalityCtx(context.Background(), 0, []int{5, 17, 40, 100}, []int{2, 3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if !all {
		t.Error("Remark 10 violated: centroid tree not optimal on a tested instance")
	}
	if len(tbl.Rows) != 4 {
		t.Errorf("rows %d", len(tbl.Rows))
	}
	// Every centroid cell must be exactly "1.00x".
	for _, row := range tbl.Rows {
		for i := 1; i < len(row); i += 2 {
			if row[i] != "1.00x" {
				t.Errorf("centroid cell %q, want 1.00x", row[i])
			}
		}
	}
}

func TestLemma9ScalingExperiment(t *testing.T) {
	tbl, err := Lemma9ScalingCtx(context.Background(), 0, []int{128, 512}, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows %d", len(tbl.Rows))
	}
	// All normalized ratios must sit in (0,1.5) (n² log_k n + O(n²)).
	for _, row := range tbl.Rows {
		for _, cell := range row[1:] {
			var v float64
			if _, err := sscanF(cell, &v); err != nil {
				t.Fatalf("bad cell %q", cell)
			}
			if v <= 0 || v > 1.5 {
				t.Errorf("normalized total distance %.3f outside (0,1.5]", v)
			}
		}
	}
}

func TestEntropyBoundCheckExperiment(t *testing.T) {
	sc := Quick
	w := MakeWorkloads(sc)
	tbl, err := EntropyBoundCheckCtx(context.Background(), engine.New(), w, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3+len(TemporalPs) {
		t.Errorf("rows %d", len(tbl.Rows))
	}
	// Theorem 13 is an upper bound up to constants: measured/bound must
	// stay under a small constant on every workload.
	for _, row := range tbl.Rows {
		var ratio float64
		if _, err := sscanF(row[3], &ratio); err != nil {
			t.Fatalf("bad ratio cell %q", row[3])
		}
		if ratio > 3 {
			t.Errorf("%s: measured/bound ratio %.2f implausibly high", row[0], ratio)
		}
	}
}

func TestAblationsRun(t *testing.T) {
	ctx, eng := context.Background(), engine.New()
	tr := workload.Temporal(64, 5000, 0.5, 5)
	ks := []int{2, 4}
	for name, ablation := range map[string]func() (report.Table, error){
		"cost":    func() (report.Table, error) { return AblationCostAccountingCtx(ctx, eng, tr, ks) },
		"semi":    func() (report.Table, error) { return AblationSemiSplayOnlyCtx(ctx, eng, tr, ks) },
		"block":   func() (report.Table, error) { return AblationBlockPolicyCtx(ctx, eng, tr, ks) },
		"initial": func() (report.Table, error) { return AblationInitialTopologyCtx(ctx, eng, tr, 3) },
		"policy":  func() (report.Table, error) { return AblationPolicyGridCtx(ctx, eng, tr, 3) },
	} {
		tbl, err := ablation()
		if err != nil {
			t.Fatalf("ablation %s: %v", name, err)
		}
		if len(tbl.Rows) < 2 {
			t.Errorf("ablation %s has %d rows", name, len(tbl.Rows))
		}
	}
}

func TestAblationPolicyGridShapes(t *testing.T) {
	// The A5 grid must cover the whole plane — the three canonical corners
	// plus the compositions the policy layer makes free — and its numbers
	// must show the qualitative story: on a local workload the fully
	// reactive net beats the frozen topology on routing, the frozen rows
	// charge no adjustment, and only rebuild rows report rebuild counts.
	tr := workload.Temporal(64, 6000, 0.75, 8)
	tbl, err := AblationPolicyGridCtx(context.Background(), engine.New(), tr, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 8 {
		t.Fatalf("policy grid has %d rows, want 8", len(tbl.Rows))
	}
	cell := func(row []string, col int) int64 {
		var v int64
		if _, err := fmt.Sscan(row[col], &v); err != nil {
			t.Fatalf("bad cell %q: %v", row[col], err)
		}
		return v
	}
	byTrig := map[string][]string{}
	for _, row := range tbl.Rows {
		byTrig[strings.Fields(row[0])[0]+"/"+row[1]] = row
	}
	reactive, frozen := byTrig["always/splay"], byTrig["never/none"]
	warmed := byTrig["first("+fmt.Sprint(int64(tr.Len())/10)+")/splay"]
	lazySplay := byTrig["alpha("+fmt.Sprint(2*int64(tr.Len()))+")/splay"]
	rebuild := byTrig["alpha("+fmt.Sprint(2*int64(tr.Len()))+")/rebuild-wb"]
	for name, row := range map[string][]string{
		"always×splay": reactive, "never×none": frozen,
		"first×splay": warmed, "alpha×splay": lazySplay, "alpha×rebuild-wb": rebuild,
	} {
		if row == nil {
			t.Fatalf("grid is missing the %s composition (rows: %v)", name, tbl.Rows)
		}
	}
	if cell(reactive, 2) >= cell(frozen, 2) {
		t.Errorf("reactive routing %s not below frozen %s on a local workload", reactive[2], frozen[2])
	}
	if cell(frozen, 3) != 0 {
		t.Errorf("frozen row charged adjustment %s", frozen[3])
	}
	// Frozen-after-warmup adjusts during the prefix only: its adjustment
	// cost is positive yet far below the fully reactive net's.
	if a := cell(warmed, 3); a == 0 || a >= cell(reactive, 3) {
		t.Errorf("frozen-after-warmup adjustment %s, want in (0, reactive %s)", warmed[3], reactive[3])
	}
	if rebuild[5] == "-" || frozen[5] != "-" {
		t.Errorf("rebuild counts misplaced: rebuild row %q, frozen row %q", rebuild[5], frozen[5])
	}
}

func TestAblationLinkChurnExceedsRotations(t *testing.T) {
	// A single rotation rewires several links; the A1 ablation must show
	// links/rotation strictly above 1 (the paper's unit-cost rotation
	// assumption understates physical churn).
	tr := workload.Temporal(64, 5000, 0.5, 6)
	tbl, err := AblationCostAccountingCtx(context.Background(), engine.New(), tr, []int{2, 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		var perRot float64
		if _, err := sscanF(row[4], &perRot); err != nil {
			t.Fatalf("bad cell %q", row[4])
		}
		if perRot <= 1 {
			t.Errorf("k=%s: links per rotation %.2f, expected > 1", row[0], perRot)
		}
	}
}

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"quick", "default", "paper", ""} {
		if _, err := ScaleByName(name); err != nil {
			t.Errorf("ScaleByName(%q): %v", name, err)
		}
	}
	if _, err := ScaleByName("bogus"); err == nil {
		t.Error("bogus scale accepted")
	}
}

func TestMakeWorkloadsDeterministic(t *testing.T) {
	a := MakeWorkloads(Quick)
	b := MakeWorkloads(Quick)
	if a.HPC.Reqs[42] != b.HPC.Reqs[42] || a.Temporals[0.9].Reqs[7] != b.Temporals[0.9].Reqs[7] {
		t.Error("workload generation not deterministic")
	}
	if a.FB.N != Quick.FBNodes || a.Uniform.Len() != Quick.Requests {
		t.Error("workload dimensions do not follow the scale")
	}
}

func TestRunSuiteQuickProducesAllSections(t *testing.T) {
	var buf bytes.Buffer
	if err := RunSuite(context.Background(), &buf, Quick, Options{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Table 1", "Table 2", "Table 3", "Table 4", "Table 5", "Table 6", "Table 7", "Table 8",
		"Remark 10", "Lemma 9", "Theorem 13",
		"Ablation A1", "Ablation A2", "Ablation A3", "Ablation A4", "Ablation A5", "Ablation A6",
		"fully reactive vs partially reactive",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("suite output missing %q", want)
		}
	}
}

func TestRunSectionsSelectsAndRejects(t *testing.T) {
	var buf bytes.Buffer
	if err := RunSections(context.Background(), &buf, Quick, Options{}, []string{"lazy", "5"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table 5", "fully reactive vs partially reactive"} {
		if !strings.Contains(out, want) {
			t.Errorf("selected output missing %q", want)
		}
	}
	for _, other := range []string{"Table 4", "Table 8", "Remark 10", "Ablation", "== ksan"} {
		if strings.Contains(out, other) {
			t.Errorf("selected output has unselected %q", other)
		}
	}
	if i, j := strings.Index(out, "Table 5"), strings.Index(out, "fully reactive"); i > j {
		t.Error("sections ran out of paper order")
	}
	buf.Reset()
	err := RunSections(context.Background(), &buf, Quick, Options{}, []string{"8", "ablatoins"})
	if !errors.Is(err, ErrUnknownSection) || !strings.Contains(err.Error(), "lazy") {
		t.Errorf("unknown name: err %v, want ErrUnknownSection listing the valid names", err)
	}
	if buf.Len() != 0 {
		t.Errorf("a rejected selection printed %q", buf.String())
	}
}

// sscanF parses a leading float from a table cell.
func sscanF(s string, v *float64) (int, error) {
	return fmt.Sscan(strings.TrimSuffix(s, "x"), v)
}
