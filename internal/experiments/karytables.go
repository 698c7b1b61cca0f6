package experiments

import (
	"context"
	"fmt"

	"github.com/ksan-net/ksan/internal/engine"
	"github.com/ksan-net/ksan/internal/report"
	"github.com/ksan-net/ksan/internal/spec"
	"github.com/ksan-net/ksan/internal/statictree"
	"github.com/ksan-net/ksan/internal/workload"
)

// KAryTableResult carries one of Tables 1–7: the k-ary SplayNet sweep on a
// single workload against the static full tree and the DP-optimal tree.
type KAryTableResult struct {
	Table report.Table
	// Routing[k] is the total routing cost of k-ary SplayNet on the trace;
	// Total[k] adds rotations. FullDist/OptDist are the static trees'
	// total distances under the trace's demand (OptDist[k]==0 ⇒ skipped).
	Routing  map[int]int64
	Total    map[int]int64
	FullDist map[int]int64
	OptDist  map[int]int64
}

// traceSpec adapts a workload trace to the engine's declarative grid input.
func traceSpec(tr workload.Trace) engine.TraceSpec {
	return engine.TraceSpec{Name: tr.Name, N: tr.N, Reqs: tr.Reqs}
}

// KAryTableCtx reproduces the layout of Tables 1–7 on one trace:
//
//	row 1 — total routing cost of 2-ary SplayNet (absolute), then the
//	        relative routing cost of k-ary SplayNet for k=3..10,
//	row 2 — k-ary SplayNet routing cost relative to the static full
//	        k-ary tree,
//	row 3 — the same against the optimal static routing-based k-ary tree
//	        ("-" where the cubic DP is out of reach, as in the paper's
//	        Facebook column).
//
// A supplementary row reports total (routing+rotation) cost ratios for
// transparency about adjustment overhead. The k sweep is one declarative
// grid (one k-ary network per column, one trace) on eng, and the
// static-tree distances are computed on the same bounded pool.
func KAryTableCtx(ctx context.Context, eng *engine.Engine, title string, tr workload.Trace, sc Scale) (KAryTableResult, error) {
	res := KAryTableResult{
		Routing:  map[int]int64{},
		Total:    map[int]int64{},
		FullDist: map[int]int64{},
		OptDist:  map[int]int64{},
	}
	d := workload.DemandFromTrace(tr)

	// The k sweep is one declarative grid, built from serializable network
	// defs (the same resolution path a user experiment file takes).
	nets := make([]engine.NetworkSpec, len(sc.Ks))
	for i, k := range sc.Ks {
		ns, err := spec.NetworkDef{Kind: "kary", K: k}.Spec()
		if err != nil {
			return res, err
		}
		nets[i] = ns
	}
	grid, err := eng.RunGrid(ctx, nets, []engine.TraceSpec{traceSpec(tr)})
	if err != nil {
		return res, err
	}
	for i, k := range sc.Ks {
		res.Routing[k] = grid[i][0].Routing
		res.Total[k] = grid[i][0].Total()
	}

	type static struct{ full, opt int64 }
	statics := make([]static, len(sc.Ks))
	err = engine.ParallelFor(ctx, eng.Workers(), len(sc.Ks), func(i int) error {
		full, err := statictree.Full(tr.N, sc.Ks[i])
		if err != nil {
			return err
		}
		statics[i].full = statictree.TotalDistance(full, d)
		return nil
	})
	if err != nil {
		return res, err
	}
	if tr.N <= sc.OptMaxN {
		// One Solver answers the whole arity sweep: the O(n²) boundary-
		// traffic matrix and the DP scratch are built once per demand
		// instead of once per k. The sweep is sequential by the Solver's
		// ownership contract; the DP fill parallelizes internally, bounded
		// by the engine's worker budget.
		solver, err := statictree.NewSolver(d, statictree.WithSolverWorkers(eng.Workers()))
		if err != nil {
			return res, err
		}
		for i, k := range sc.Ks {
			if err := ctx.Err(); err != nil {
				return res, err
			}
			_, cost, err := solver.Optimal(k)
			if err != nil {
				return res, err
			}
			statics[i].opt = cost
		}
	}
	for i, k := range sc.Ks {
		res.FullDist[k] = statics[i].full
		res.OptDist[k] = statics[i].opt
	}

	t := report.Table{
		Title:  title,
		Header: []string{""},
	}
	for _, k := range sc.Ks {
		t.Header = append(t.Header, fmt.Sprintf("%d", k))
	}
	base := res.Routing[2]
	row1 := []string{"SplayNet"}
	row2 := []string{"Full Tree"}
	row3 := []string{"Optimal Tree"}
	row4 := []string{"Total (incl. adj.)"}
	for i, k := range sc.Ks {
		if i == 0 && k == 2 {
			row1 = append(row1, report.Count(base))
		} else {
			row1 = append(row1, report.Ratio(res.Routing[k], base))
		}
		row2 = append(row2, report.Ratio(res.Routing[k], res.FullDist[k]))
		if res.OptDist[k] > 0 {
			row3 = append(row3, report.Ratio(res.Routing[k], res.OptDist[k]))
		} else {
			row3 = append(row3, "-")
		}
		row4 = append(row4, report.Ratio(res.Total[k], res.Total[2]))
	}
	t.AddRow(row1...)
	t.AddRow(row2...)
	t.AddRow(row3...)
	t.AddRow(row4...)
	res.Table = t
	return res, nil
}

// Tables1Through7Ctx runs the whole k-ary sweep suite on eng: the three
// trace-like workloads and the four temporal workloads.
func Tables1Through7Ctx(ctx context.Context, eng *engine.Engine, w Workloads, sc Scale) ([]KAryTableResult, error) {
	type spec struct {
		title string
		tr    workload.Trace
	}
	specs := []spec{
		{fmt.Sprintf("Table 1: k-ary SplayNet on HPC workload (n=%d, m=%d)", w.HPC.N, w.HPC.Len()), w.HPC},
		{fmt.Sprintf("Table 2: k-ary SplayNet on ProjecToR workload (n=%d, m=%d)", w.Proj.N, w.Proj.Len()), w.Proj},
		{fmt.Sprintf("Table 3: k-ary SplayNet on Facebook workload (n=%d, m=%d)", w.FB.N, w.FB.Len()), w.FB},
	}
	for i, p := range TemporalPs {
		tr := w.Temporals[p]
		specs = append(specs, spec{
			fmt.Sprintf("Table %d: k-ary SplayNet on synthetic workload, temporal parameter %.2f (n=%d, m=%d)", 4+i, p, tr.N, tr.Len()),
			tr,
		})
	}
	out := make([]KAryTableResult, 0, len(specs))
	for _, s := range specs {
		res, err := KAryTableCtx(ctx, eng, s.title, s.tr, sc)
		if err != nil {
			return out, err
		}
		out = append(out, res)
	}
	return out, nil
}
