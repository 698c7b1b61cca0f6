package experiments

import (
	"context"
	"fmt"

	"github.com/ksan-net/ksan/internal/core"
	"github.com/ksan-net/ksan/internal/engine"
	"github.com/ksan-net/ksan/internal/policy"
	"github.com/ksan-net/ksan/internal/report"
	"github.com/ksan-net/ksan/internal/workload"
)

// AblationCostAccountingCtx (A1 in DESIGN.md) quantifies the gap between
// the paper's "one unit per rotation" adjustment accounting and the
// model's raw definition (links added/removed): for each k it reports
// routing cost, rotation count and actual edge churn of k-ary SplayNet on
// a trace.
func AblationCostAccountingCtx(ctx context.Context, eng *engine.Engine, tr workload.Trace, ks []int) (report.Table, error) {
	t := report.Table{
		Title:  fmt.Sprintf("Ablation A1: rotation count vs link churn (%s, n=%d, m=%d)", tr.Name, tr.N, tr.Len()),
		Header: []string{"k", "routing", "rotations", "links changed", "links/rotation"},
	}
	for _, k := range ks {
		net, err := policy.NewKArySplayNet(tr.N, k)
		if err != nil {
			return t, err
		}
		net.Tree().SetTrackEdges(true)
		res, err := eng.Run(ctx, net, tr.Reqs)
		if err != nil {
			return t, err
		}
		churn := net.Tree().EdgeChanges()
		perRot := "-"
		if res.Adjust > 0 {
			perRot = fmt.Sprintf("%.2f", float64(churn)/float64(res.Adjust))
		}
		t.AddRow(fmt.Sprintf("%d", k), report.Count(res.Routing), report.Count(res.Adjust),
			report.Count(churn), perRot)
	}
	return t, nil
}

// AblationSemiSplayOnlyCtx (A2) measures the value of the double k-splay
// step: it compares the full rotation repertoire against
// k-semi-splay-only self-adjustment.
func AblationSemiSplayOnlyCtx(ctx context.Context, eng *engine.Engine, tr workload.Trace, ks []int) (report.Table, error) {
	t := report.Table{
		Title:  fmt.Sprintf("Ablation A2: full k-splay vs k-semi-splay only (%s, total cost)", tr.Name),
		Header: []string{"k", "k-splay total", "semi-only total", "semi/full"},
	}
	for _, k := range ks {
		splay, err := policy.NewKArySplayNet(tr.N, k)
		if err != nil {
			return t, err
		}
		full, err := eng.Run(ctx, splay, tr.Reqs)
		if err != nil {
			return t, err
		}
		semi, err := policy.NewBalanced(fmt.Sprintf("%d-ary semi-splay", k), tr.N, k,
			policy.Always(), policy.SemiSplay())
		if err != nil {
			return t, err
		}
		s, err := eng.Run(ctx, semi, tr.Reqs)
		if err != nil {
			return t, err
		}
		t.AddRow(fmt.Sprintf("%d", k), report.Count(full.Total()), report.Count(s.Total()),
			report.Ratio(s.Total(), full.Total()))
	}
	return t, nil
}

// AblationBlockPolicyCtx (A3) compares the id-centered block placement of
// the rebuild against the leftmost feasible placement.
func AblationBlockPolicyCtx(ctx context.Context, eng *engine.Engine, tr workload.Trace, ks []int) (report.Table, error) {
	t := report.Table{
		Title:  fmt.Sprintf("Ablation A3: centered vs leftmost routing-element blocks (%s, total cost)", tr.Name),
		Header: []string{"k", "centered", "leftmost", "leftmost/centered"},
	}
	for _, k := range ks {
		center, err := policy.NewKArySplayNet(tr.N, k)
		if err != nil {
			return t, err
		}
		centered, err := eng.Run(ctx, center, tr.Reqs)
		if err != nil {
			return t, err
		}
		left, err := policy.NewKArySplayNet(tr.N, k)
		if err != nil {
			return t, err
		}
		left.Tree().SetBlockPolicy(core.BlockLeftmost)
		l, err := eng.Run(ctx, left, tr.Reqs)
		if err != nil {
			return t, err
		}
		t.AddRow(fmt.Sprintf("%d", k), report.Count(centered.Total()), report.Count(l.Total()),
			report.Ratio(l.Total(), centered.Total()))
	}
	return t, nil
}

// AblationInitialTopologyCtx (A4) measures how much the initial network
// matters to k-ary SplayNet: balanced vs path vs random starts (the model
// allows an arbitrary G0; self-adjustment should largely erase it).
func AblationInitialTopologyCtx(ctx context.Context, eng *engine.Engine, tr workload.Trace, k int) (report.Table, error) {
	t := report.Table{
		Title:  fmt.Sprintf("Ablation A4: initial topology sensitivity (%s, k=%d, total cost)", tr.Name, k),
		Header: []string{"initial", "total cost", "vs balanced"},
	}
	starts := []struct {
		name string
		tree func() (*core.Tree, error)
	}{
		{"balanced", func() (*core.Tree, error) { return core.NewBalanced(tr.N, k) }},
		{"path", func() (*core.Tree, error) { return core.NewPath(tr.N, k) }},
		{"random", func() (*core.Tree, error) { return core.NewRandom(tr.N, k, 99) }},
	}
	var balanced int64
	for i, st := range starts {
		tree, err := st.tree()
		if err != nil {
			return t, err
		}
		net, err := policy.New(policy.KArySplayNetName(k), tree, policy.Always(), policy.Splay())
		if err != nil {
			return t, err
		}
		res, err := eng.Run(ctx, net, tr.Reqs)
		if err != nil {
			return t, err
		}
		if i == 0 {
			balanced = res.Total()
		}
		t.AddRow(st.name, report.Count(res.Total()), report.Ratio(res.Total(), balanced))
	}
	return t, nil
}
