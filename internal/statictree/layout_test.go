package statictree

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/ksan-net/ksan/internal/workload"
)

// layoutDemands is the demand grid the fill-layout tests pin at node count
// n: uniform, Zipf, projector, one hot pair over a neighbour chain, and
// bandedDemand. A one-node demand has no pairs, so at n = 1 the two
// sampled families are the empty demand.
func layoutDemands(n int) []demandCase {
	cases := []demandCase{{"uniform", workload.UniformDemand(n)}}
	if n >= 2 {
		cases = append(cases,
			demandCase{"zipf", workload.DemandFromTrace(workload.Zipf(n, 40*n, 1.2, int64(n)))},
			demandCase{"projector", workload.DemandFromTrace(workload.ProjecToRLike(n, 40*n, int64(n)+1))})
	} else {
		cases = append(cases, demandCase{"empty", &workload.Demand{N: n}})
	}
	hot := &workload.Demand{N: n}
	if n >= 2 {
		hot.Pairs = append(hot.Pairs, workload.PairCount{Src: 1 + n/4, Dst: n - n/4, Count: 10_000})
		hot.Total = 10_000
	}
	for u := 1; u < n; u++ {
		hot.Pairs = append(hot.Pairs, workload.PairCount{Src: u, Dst: u + 1, Count: 1})
		hot.Total++
	}
	return append(cases, demandCase{"single-hot-pair", hot}, demandCase{"banded", bandedDemand(n)})
}

// TestSolverFillMatchesRowMajor pins the Solver's fill to the former one
// (rowMajorSolver) cell for cell: every stored plane t = 1..k-1, both
// column copies, the root table, the cost, the pruning counters and the
// built tree. Each case runs inline and again on two and three workers
// with the spawn threshold at zero, so every diagonal but the last is
// pooled and the concurrent writes of the row cells and of their column
// copies, and the barrier between diagonals, run under the race detector.
func TestSolverFillMatchesRowMajor(t *testing.T) {
	// A one-worker Solver fills inline at any threshold. The parallel
	// cases run after this function returns, so Cleanup, which waits for
	// them, restores the threshold rather than a defer.
	old := spawnWorkThreshold
	spawnWorkThreshold = 0
	t.Cleanup(func() { spawnWorkThreshold = old })
	for _, n := range []int{1, 2, 3, 17, 64, 200} {
		for _, dc := range layoutDemands(n) {
			t.Run(fmt.Sprintf("%s/n=%d", dc.name, n), func(t *testing.T) {
				t.Parallel()
				checkSolverFill(t, dc.d, 1, 2, 3)
			})
		}
	}
}

// TestSolverFillOneProcessor runs two fill workers on one processor
// (GOMAXPROCS 1) with every diagonal but the last pooled: a worker that
// waits at the barrier between two diagonals must yield the processor to
// the one it waits for, or the fill crawls at the scheduler's preemption
// tick. The fill must finish and match the inline one cell for cell,
// pruning counters included.
func TestSolverFillOneProcessor(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	old := spawnWorkThreshold
	spawnWorkThreshold = 0
	defer func() { spawnWorkThreshold = old }()
	for _, n := range []int{2, 3, 17, 64, 200} {
		for _, dc := range layoutDemands(n) {
			t.Run(fmt.Sprintf("%s/n=%d", dc.name, n), func(t *testing.T) {
				checkSolverFill(t, dc.d, 1, 2)
			})
		}
	}
}

// checkSolverFill solves d at several arities on one Solver per worker
// count and compares each with the row-major fill.
func checkSolverFill(t *testing.T, d *workload.Demand, workerCounts ...int) {
	n := d.N
	sc, err := newSegmentCosts(d)
	if err != nil {
		t.Fatal(err)
	}
	solvers := make([]*Solver, len(workerCounts))
	for m, workers := range workerCounts {
		if solvers[m], err = NewSolver(d, WithSolverWorkers(workers)); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []int{2, 3, 4, 8} {
		ref := &rowMajorSolver{n: n, sc: sc, workers: 1}
		refTree, refCost, err := ref.Optimal(k)
		if err != nil {
			t.Fatalf("k=%d row-major fill: %v", k, err)
		}
		for _, s := range solvers {
			name := fmt.Sprintf("k=%d workers=%d", k, s.workers)
			tree, cost, err := s.Optimal(k)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if cost != refCost {
				t.Fatalf("%s: cost %d, row-major fill %d", name, cost, refCost)
			}
			// Planes 1..k-1 sit where the row-major fill keeps them.
			planes := (k - 1) * s.T
			if x := firstDiff(s.dp2[:planes], ref.dp2[:planes]); x >= 0 {
				t.Fatalf("%s: dp2 plane %d cell %d = %d, row-major fill %d", name, x/s.T+1, x%s.T, s.dp2[x], ref.dp2[x])
			}
			for i := 1; i <= n; i++ {
				for j := i; j <= n; j++ {
					c := s.sc.t.col(i, j)
					if s.col1[c] != s.get2(i, j, 1) || s.colTop[c] != s.get2(i, j, k-1) {
						t.Fatalf("%s: column copies of (%d,%d) hold %d and %d, planes 1 and k-1 %d and %d",
							name, i, j, s.col1[c], s.colTop[c], s.get2(i, j, 1), s.get2(i, j, k-1))
					}
				}
			}
			if x := firstDiff(s.root, ref.root); x >= 0 {
				t.Fatalf("%s: root cell %d = %d, row-major fill %d", name, x, s.root[x], ref.root[x])
			}
			if e, sk := s.rootsEvaluated.Load(), s.rootsSkipped.Load(); e != ref.rootsEvaluated.Load() || sk != ref.rootsSkipped.Load() {
				t.Fatalf("%s: %d roots evaluated and %d skipped, row-major fill %d and %d",
					name, e, sk, ref.rootsEvaluated.Load(), ref.rootsSkipped.Load())
			}
			if !reflect.DeepEqual(tree.Snapshot(), refTree.Snapshot()) {
				t.Fatalf("%s: tree differs from the row-major fill's", name)
			}
		}
	}
}

// TestUniformFillMatchesInterleaved pins the UniformSolver's fill, whose
// forest search stops at the smallest tree's bound ⌊L/t⌋, and its arena
// writer to the former full-range interleaved fill and Build of its Spec
// (interleavedUniformSolver): the single-tree costs, every forest value
// and the tree. It runs every n up to 130, where ⌊L/t⌋ changes at every
// length, and three larger n up to lazy-hotspot-faulted's 4095.
func TestUniformFillMatchesInterleaved(t *testing.T) {
	t.Run("n=1..130", func(t *testing.T) {
		t.Parallel()
		for n := 1; n <= 130; n++ {
			checkUniformFill(t, n)
		}
	})
	for _, n := range []int{511, 1023, 4095} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			t.Parallel()
			checkUniformFill(t, n)
		})
	}
}

func checkUniformFill(t *testing.T, n int) {
	s, err := NewUniformSolver(n)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 3, 4, 5, 8, 16, 32} {
		if err := matchUniformFill(s, k); err != nil {
			t.Fatal(err)
		}
	}
}

// matchUniformFill solves s at arity k and compares the fill and the tree
// with the interleaved fill's; the tree must also validate.
func matchUniformFill(s *UniformSolver, k int) error {
	n := s.n
	ref := &interleavedUniformSolver{n: n}
	refTree, refCost, err := ref.Optimal(k)
	if err != nil {
		return fmt.Errorf("n=%d k=%d interleaved fill: %v", n, k, err)
	}
	tree, cost, err := s.Optimal(k)
	if err != nil {
		return fmt.Errorf("n=%d k=%d: %v", n, k, err)
	}
	if cost != refCost {
		return fmt.Errorf("n=%d k=%d: cost %d, interleaved fill %d", n, k, cost, refCost)
	}
	if x := firstDiff(s.tree, ref.tree); x >= 0 {
		return fmt.Errorf("n=%d k=%d: best tree on %d nodes costs %d, interleaved fill %d", n, k, x, s.tree[x], ref.tree[x])
	}
	for p := 1; p <= k; p++ {
		for size := 0; size <= n; size++ {
			if got, want := s.plane(p)[size], ref.forest[size*(k+1)+p]; got != want {
				return fmt.Errorf("n=%d k=%d: forest of %d trees on %d nodes costs %d, interleaved fill %d", n, k, p, size, got, want)
			}
		}
	}
	if !reflect.DeepEqual(tree.Snapshot(), refTree.Snapshot()) {
		return fmt.Errorf("n=%d k=%d: tree differs from the interleaved fill's", n, k)
	}
	if err := tree.Validate(); err != nil {
		return fmt.Errorf("n=%d k=%d: %v", n, k, err)
	}
	return nil
}

// FuzzUniformSolver fuzzes the uniform fill and writer against the
// interleaved fill and Build of its Spec, as matchUniformFill compares
// them: the node count is 1 + nRaw mod 700 and the arity 2 + kRaw mod
// 1024, so most arities exceed n, where the length, not k, bounds a
// forest's part count. An arity near CheckIDRange's limit (n·k < 2³¹)
// would need gigabytes of arena and forest table at any n, so each input
// also asks for the first arity past the limit, which must be refused.
func FuzzUniformSolver(f *testing.F) {
	f.Fuzz(func(t *testing.T, nRaw, kRaw uint16) {
		n, k := 1+int(nRaw)%700, 2+int(kRaw)%1024
		s, err := NewUniformSolver(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := matchUniformFill(s, k); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Optimal(math.MaxInt32/n + 1); err == nil || !strings.Contains(err.Error(), "overflows the int32 cut space") {
			t.Fatalf("n=%d k=%d: error %v, want the cut-space overflow", n, math.MaxInt32/n+1, err)
		}
	})
}

// firstDiff returns the first index where a and b differ, or -1 when they
// are equal.
func firstDiff[E comparable](a, b []E) int {
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	for x := range a {
		if a[x] != b[x] {
			return x
		}
	}
	return -1
}
