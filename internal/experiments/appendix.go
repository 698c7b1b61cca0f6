package experiments

import (
	"context"
	"fmt"
	"math"

	"github.com/ksan-net/ksan/internal/engine"
	"github.com/ksan-net/ksan/internal/report"
	"github.com/ksan-net/ksan/internal/spec"
	"github.com/ksan-net/ksan/internal/statictree"
	"github.com/ksan-net/ksan/internal/workload"
)

// CentroidOptimalityCtx reproduces the observation of Remark 10/37: on the
// uniform workload the centroid k-ary search tree matches the DP-optimal
// tree exactly for all tested n < 10³ and k ≤ 10. For each (n,k) the table
// reports centroid/optimal total-distance ratios (1.00x = optimal) and the
// full tree's ratio for contrast. workers bounds the pool (0 =
// GOMAXPROCS): the (n,k) cells are independent DP solves, so they shard
// across it.
func CentroidOptimalityCtx(ctx context.Context, workers int, ns []int, ks []int) (report.Table, bool, error) {
	t := report.Table{
		Title:  "Remark 10: centroid tree vs uniform-workload optimum (total distance ratios)",
		Header: []string{"n"},
	}
	for _, k := range ks {
		t.Header = append(t.Header, fmt.Sprintf("centroid k=%d", k), fmt.Sprintf("full k=%d", k))
	}
	type cell struct {
		cenRatio, fullRatio string
		optimal             bool
	}
	cells := make([]cell, len(ns)*len(ks))
	// Shard over n, not over (n,k): one UniformSolver per node count
	// answers the whole arity row, recycling its DP scratch across k.
	err := engine.ParallelFor(ctx, workers, len(ns), func(i int) error {
		n := ns[i]
		solver, err := statictree.NewUniformSolver(n)
		if err != nil {
			return err
		}
		for j, k := range ks {
			_, opt, err := solver.Optimal(k)
			if err != nil {
				return err
			}
			cen, err := statictree.Centroid(n, k)
			if err != nil {
				return err
			}
			full, err := statictree.Full(n, k)
			if err != nil {
				return err
			}
			cd := statictree.TotalDistanceUniform(cen)
			fd := statictree.TotalDistanceUniform(full)
			cells[i*len(ks)+j] = cell{
				cenRatio:  report.Ratio(cd, opt),
				fullRatio: report.Ratio(fd, opt),
				optimal:   cd == opt,
			}
		}
		return nil
	})
	if err != nil {
		return t, false, err
	}
	allOptimal := true
	for i, n := range ns {
		row := []string{fmt.Sprintf("%d", n)}
		for j := range ks {
			c := cells[i*len(ks)+j]
			row = append(row, c.cenRatio, c.fullRatio)
			if !c.optimal {
				allOptimal = false
			}
		}
		t.AddRow(row...)
	}
	return t, allOptimal, nil
}

// Lemma9ScalingCtx reproduces the asymptotic claim of Lemma 9/36: the total
// uniform distance of both the full k-ary tree and the centroid tree is
// n²·log_k n + O(n²). The table reports total distance divided by
// n²·log_k n, which must approach 1 from either side as n grows. The
// per-(n,k) total-distance evaluations shard across a pool of workers
// (0 = GOMAXPROCS).
func Lemma9ScalingCtx(ctx context.Context, workers int, ns []int, ks []int) (report.Table, error) {
	t := report.Table{
		Title:  "Lemma 9: total distance / (n² log_k n) for full and centroid trees",
		Header: []string{"n"},
	}
	for _, k := range ks {
		t.Header = append(t.Header, fmt.Sprintf("full k=%d", k), fmt.Sprintf("centroid k=%d", k))
	}
	type cell struct{ full, cen string }
	cells := make([]cell, len(ns)*len(ks))
	err := engine.ParallelFor(ctx, workers, len(cells), func(i int) error {
		n, k := ns[i/len(ks)], ks[i%len(ks)]
		norm := float64(n) * float64(n) * math.Log(float64(n)) / math.Log(float64(k))
		full, err := statictree.Full(n, k)
		if err != nil {
			return err
		}
		cen, err := statictree.Centroid(n, k)
		if err != nil {
			return err
		}
		cells[i] = cell{
			full: fmt.Sprintf("%.3f", float64(statictree.TotalDistanceUniform(full))/norm),
			cen:  fmt.Sprintf("%.3f", float64(statictree.TotalDistanceUniform(cen))/norm),
		}
		return nil
	})
	if err != nil {
		return t, err
	}
	for i, n := range ns {
		row := []string{fmt.Sprintf("%d", n)}
		for j := range ks {
			row = append(row, cells[i*len(ks)+j].full, cells[i*len(ks)+j].cen)
		}
		t.AddRow(row...)
	}
	return t, nil
}

// EntropyBoundCheckCtx relates measured k-ary SplayNet cost to the Theorem 13
// entropy bound on each workload: the measured/bound ratio must stay below
// a modest constant across workloads if the implementation matches the
// analysis (the bound is asymptotic, so the constant is not 1). It runs
// as a declarative grid on eng: one k-ary network row crossed with the
// seven workloads.
func EntropyBoundCheckCtx(ctx context.Context, eng *engine.Engine, w Workloads, k int) (report.Table, error) {
	t := report.Table{
		Title:  fmt.Sprintf("Theorem 13 sanity: %d-ary SplayNet total cost vs entropy bound", k),
		Header: []string{"workload", "measured total", "entropy bound", "ratio"},
	}
	traces := []engine.TraceSpec{
		namedSpec("uniform", w.Uniform),
		namedSpec("hpc", w.HPC),
		namedSpec("projector", w.Proj),
	}
	bounds := []float64{
		workload.EntropyBound(w.Uniform),
		workload.EntropyBound(w.HPC),
		workload.EntropyBound(w.Proj),
	}
	for _, p := range TemporalPs {
		tr := w.Temporals[p]
		traces = append(traces, namedSpec(fmt.Sprintf("temporal-%.2f", p), tr))
		bounds = append(bounds, workload.EntropyBound(tr))
	}
	ns, err := spec.NetworkDef{Kind: "kary", K: k}.Spec()
	if err != nil {
		return t, err
	}
	grid, err := eng.RunGrid(ctx, []engine.NetworkSpec{ns}, traces)
	if err != nil {
		return t, err
	}
	for j, tr := range traces {
		total := grid[0][j].Total()
		t.AddRow(tr.Name, report.Count(total), fmt.Sprintf("%.0f", bounds[j]),
			fmt.Sprintf("%.2f", float64(total)/bounds[j]))
	}
	return t, nil
}
