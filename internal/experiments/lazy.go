package experiments

import (
	"context"
	"fmt"

	"github.com/ksan-net/ksan/internal/engine"
	"github.com/ksan-net/ksan/internal/policy"
	"github.com/ksan-net/ksan/internal/report"
	"github.com/ksan-net/ksan/internal/statictree"
	"github.com/ksan-net/ksan/internal/workload"
)

// LazyVsReactiveCtx compares the fully reactive k-ary SplayNet against the
// partially reactive meta-algorithm (policy.NewLazy) across
// reconfiguration thresholds α, using the model's raw link-churn cost for
// the lazy rebuilds. This extends the paper's introduction discussion of
// lazy SANs ([13]) to the k-ary setting. The lazy networks replay their
// observed traffic into rebuilds internally, so each network instance
// must see the trace strictly in order: the engine serves each row
// sequentially and the rows themselves run one after another.
func LazyVsReactiveCtx(ctx context.Context, eng *engine.Engine, tr workload.Trace, k int, alphas []int64) (report.Table, error) {
	t := report.Table{
		Title:  fmt.Sprintf("Extension: fully reactive vs partially reactive (lazy) networks (%s, k=%d)", tr.Name, k),
		Header: []string{"network", "routing", "adjustment", "total", "rebuilds"},
	}
	splay, err := policy.NewKArySplayNet(tr.N, k)
	if err != nil {
		return t, err
	}
	reactive, err := eng.Run(ctx, splay, tr.Reqs)
	if err != nil {
		return t, err
	}
	t.AddRow(reactive.Name+" (reactive)",
		report.Count(reactive.Routing), report.Count(reactive.Adjust),
		report.Count(reactive.Total()), "-")
	full, err := statictree.Full(tr.N, k)
	if err != nil {
		return t, err
	}
	frozen, err := policy.New("full", full, policy.Never(), policy.None())
	if err != nil {
		return t, err
	}
	static, err := eng.Run(ctx, frozen, tr.Reqs)
	if err != nil {
		return t, err
	}
	t.AddRow("full tree (never adjusts)",
		report.Count(static.Routing), "0", report.Count(static.Total()), "0")
	for _, a := range alphas {
		lazy, err := policy.NewLazy(tr.N, k, a)
		if err != nil {
			return t, err
		}
		res, err := eng.Run(ctx, lazy, tr.Reqs)
		if err != nil {
			return t, err
		}
		t.AddRow(fmt.Sprintf("lazy α=%d", a),
			report.Count(res.Routing), report.Count(res.Adjust),
			report.Count(res.Total()), fmt.Sprintf("%d", lazy.Rebuilds()))
	}
	return t, nil
}
