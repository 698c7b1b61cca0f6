package experiments

import (
	"context"
	"fmt"

	"github.com/ksan-net/ksan/internal/engine"
	"github.com/ksan-net/ksan/internal/policy"
	"github.com/ksan-net/ksan/internal/report"
	"github.com/ksan-net/ksan/internal/workload"
)

// AblationReconvergenceCtx (A6 in DESIGN.md) measures how fast each policy
// composition re-converges after demand drift. The trace is a phased
// hot-set drift: three hotspot phases over the same nodes whose hot sets
// are re-drawn (different seeds) at each boundary, so the tree a policy
// built for phase k is wrong for phase k+1. The per-window cost
// time-series then shows, per policy, the cost spike at each boundary and
// how many windows it takes to fall back to the pre-boundary steady
// state. This is the regime where triggers separate: always-on splaying
// tracks the drift within a window, periodic splaying lags by its period,
// a bare cost-threshold rebuild thrashes on the boundary spike, and the
// same threshold with a cooldown rebuilds once and settles. workers
// bounds the engine's pool (0 = GOMAXPROCS).
func AblationReconvergenceCtx(ctx context.Context, workers int, sc Scale) (report.Table, error) {
	const (
		k       = 4
		phases  = 3
		winsPer = 10 // windows per phase; boundaries land exactly on window edges
		hotFrac = 0.1
		hotOpn  = 0.9
	)
	n := sc.UniformNodes
	mPhase := sc.Requests / phases
	mPhase -= mPhase % winsPer // keep every phase an exact number of windows
	win := mPhase / winsPer

	ph := make([]workload.Phase, phases)
	for i := range ph {
		g := workload.HotspotGen(n, mPhase, hotFrac, hotOpn, sc.Seed+100+int64(i))
		ph[i] = workload.Phase{Gen: g, M: mPhase}
	}
	gen, err := workload.PhasedGen("hot-set drift", ph)
	if err != nil {
		return report.Table{}, err
	}

	t := report.Table{
		Title: fmt.Sprintf("Ablation A6: re-convergence under drift (%s, n=%d, k=%d, %d×%d requests, window=%d)",
			gen.Label(), n, k, phases, mPhase, win),
		Header: []string{"trigger", "adjuster", "routing", "adjust", "total", "spike", "reconv windows"},
	}

	// The threshold is deliberately tight (a rebuild every few hundred
	// requests at typical path lengths): the bare trigger then thrashes on
	// the post-boundary cost spike, which is exactly what the cooldown
	// exists to damp — the damped row may rebuild at most once per
	// cooldown stretch.
	alpha := int64(mPhase / 2)
	cooldown := int64(mPhase / 2)
	rebuildWB := func() policy.Adjuster {
		return policy.RebuildWeightBalanced("rebuild-wb")
	}
	rows := []struct {
		note string
		trig func() policy.Trigger
		adj  func() policy.Adjuster
	}{
		{"(k-ary SplayNet)", policy.Always, policy.Splay},
		{"(periodic splay)", func() policy.Trigger { return policy.EveryM(4) }, policy.Splay},
		{"(lazy net)", func() policy.Trigger { return policy.Alpha(alpha) }, rebuildWB},
		{"(damped lazy net)", func() policy.Trigger { return policy.AlphaHysteresis(alpha, cooldown) }, rebuildWB},
		{"(static balanced)", policy.Never, policy.None},
	}

	eng := engine.New(engine.WithWorkers(workers), engine.WithWindow(win))
	for _, r := range rows {
		trig, adj := r.trig(), r.adj()
		label := fmt.Sprintf("%s×%s", trig.Name(), adj.Name())
		net, err := policy.NewBalanced(label, n, k, trig, adj)
		if err != nil {
			return t, err
		}
		res, err := eng.RunGen(ctx, net, gen)
		if err != nil {
			return t, err
		}
		spike, reconv := reconvergence(res.Series, winsPer, phases)
		trigCell := trig.Name()
		if r.note != "" {
			trigCell += " " + r.note
		}
		t.AddRow(trigCell, adj.Name(), report.Count(res.Routing), report.Count(res.Adjust),
			report.Count(res.Total()), spike, reconv)
	}
	return t, nil
}

// reconvergence folds a phased run's window series into two cells: the
// worst boundary spike (peak post-boundary window cost over the steady
// window cost before that boundary) and the mean number of windows after
// a boundary until window cost re-enters 1.15× of the pre-boundary steady
// state ("-" when some boundary never re-converges within its phase).
func reconvergence(series []engine.WindowSample, winsPer, phases int) (spike, reconv string) {
	if len(series) != winsPer*phases {
		return "-", "-"
	}
	cost := make([]float64, len(series))
	for i, s := range series {
		cost[i] = float64(s.Routing + s.Adjust)
	}
	worst := 0.0
	sum, ok := 0, true
	for b := winsPer; b < len(cost); b += winsPer {
		steady := (cost[b-3] + cost[b-2] + cost[b-1]) / 3
		if steady == 0 {
			return "-", "-"
		}
		recovered := false
		for r := 0; r < winsPer; r++ {
			if ratio := cost[b+r] / steady; ratio > worst {
				worst = ratio
			}
			if !recovered && cost[b+r] <= 1.15*steady {
				sum += r
				recovered = true
			}
		}
		if !recovered {
			ok = false
		}
	}
	spike = fmt.Sprintf("%.2fx", worst)
	if !ok {
		return spike, "-"
	}
	boundaries := phases - 1
	return spike, fmt.Sprintf("%.1f", float64(sum)/float64(boundaries))
}
