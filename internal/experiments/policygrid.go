package experiments

import (
	"context"
	"fmt"

	"github.com/ksan-net/ksan/internal/engine"
	"github.com/ksan-net/ksan/internal/policy"
	"github.com/ksan-net/ksan/internal/report"
	"github.com/ksan-net/ksan/internal/workload"
)

// AblationPolicyGridCtx (A5 in DESIGN.md) sweeps the trigger × adjuster
// plane of the policy layer on the k-ary topology: the canonical corners
// (the fully reactive k-ary SplayNet, the lazy rebuild net, the frozen
// balanced tree) next to the compositions the decoupling makes free —
// lazy k-ary splay (adjust only once enough routing cost accumulates,
// but by splaying instead of rebuilding), periodic semi-splay, and
// frozen-after-warmup. One row per composition, same trace, total-cost
// accounting.
func AblationPolicyGridCtx(ctx context.Context, eng *engine.Engine, tr workload.Trace, k int) (report.Table, error) {
	t := report.Table{
		Title: fmt.Sprintf("Ablation A5: the trigger × adjuster policy plane (%s, n=%d, m=%d, k=%d)",
			tr.Name, tr.N, tr.Len(), k),
		Header: []string{"trigger", "adjuster", "routing", "adjust", "total", "rebuilds"},
	}
	m := int64(tr.Len())
	alpha := 2 * m // a handful of rebuilds per trace at typical path lengths
	warm := m / 10
	rows := []struct {
		note string
		trig func() policy.Trigger
		adj  func() policy.Adjuster
	}{
		{"(k-ary SplayNet)", policy.Always, policy.Splay},
		{"(semi-splay ablation)", policy.Always, policy.SemiSplay},
		{"", func() policy.Trigger { return policy.EveryM(4) }, policy.Splay},
		{"(periodic semi-splay)", func() policy.Trigger { return policy.EveryM(4) }, policy.SemiSplay},
		{"(lazy k-ary splay)", func() policy.Trigger { return policy.Alpha(alpha) }, policy.Splay},
		{"(lazy net)", func() policy.Trigger { return policy.Alpha(alpha) },
			func() policy.Adjuster { return policy.RebuildWeightBalanced("rebuild-wb") }},
		{"(frozen after warmup)", func() policy.Trigger { return policy.First(warm) }, policy.Splay},
		{"(static balanced)", policy.Never, policy.None},
	}
	for _, r := range rows {
		trig, adj := r.trig(), r.adj()
		label := fmt.Sprintf("%s×%s", trig.Name(), adj.Name())
		net, err := policy.NewBalanced(label, tr.N, k, trig, adj)
		if err != nil {
			return t, err
		}
		res, err := eng.Run(ctx, net, tr.Reqs)
		if err != nil {
			return t, err
		}
		trigCell := trig.Name()
		if r.note != "" {
			trigCell += " " + r.note
		}
		rebuilds := "-"
		if adj.NeedsWindow() {
			rebuilds = fmt.Sprintf("%d", net.Rebuilds())
		}
		t.AddRow(trigCell, adj.Name(), report.Count(res.Routing), report.Count(res.Adjust),
			report.Count(res.Total()), rebuilds)
	}
	return t, nil
}
