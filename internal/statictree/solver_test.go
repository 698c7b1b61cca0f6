package statictree

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/ksan-net/ksan/internal/workload"
)

// --- Differential demand families -----------------------------------------
//
// The pruned Solver must produce costs bit-identical to the exhaustive DP
// on every family the evaluation exercises plus adversarial shapes chosen
// to stress the admissible bound: a single dominant pair (bounds very
// uneven) and banded demands (bounds all tie, worst case for pruning).

type demandCase struct {
	name string
	d    *workload.Demand
}

func diffDemands(tb testing.TB) []demandCase {
	tb.Helper()
	var cases []demandCase
	add := func(name string, d *workload.Demand) {
		cases = append(cases, demandCase{name, d})
	}
	for _, n := range []int{8, 17, 33, 64} {
		add(fmt.Sprintf("uniform/n=%d", n), workload.UniformDemand(n))
		add(fmt.Sprintf("uniform-trace/n=%d", n),
			workload.DemandFromTrace(workload.Uniform(n, 40*n, int64(n))))
		add(fmt.Sprintf("zipf/n=%d", n),
			workload.DemandFromTrace(workload.Zipf(n, 40*n, 1.2, int64(n)+1)))
		add(fmt.Sprintf("temporal/n=%d", n),
			workload.DemandFromTrace(workload.Temporal(n, 40*n, 0.75, int64(n)+2)))
		// Adversarial: one pair dominates a sparse background.
		hot := &workload.Demand{N: n}
		hot.Pairs = append(hot.Pairs, workload.PairCount{Src: 2, Dst: n - 1, Count: 10_000})
		for u := 1; u < n; u++ {
			hot.Pairs = append(hot.Pairs, workload.PairCount{Src: u, Dst: u + 1, Count: 1})
		}
		hot.Total = 10_000 + int64(n-1)
		add(fmt.Sprintf("single-hot-pair/n=%d", n), hot)
		add(fmt.Sprintf("banded/n=%d", n), bandedDemand(n))
	}
	// Seeded random demands round out the grid.
	for seed := int64(0); seed < 3; seed++ {
		add(fmt.Sprintf("random/seed=%d", seed), randomDemand(24, 0.35, seed))
	}
	return cases
}

// bandedDemand is an adversarial demand for the root pruning: all traffic
// runs between ids at distance ≤ 3, so segment boundary costs are
// near-flat and the root bounds tie almost everywhere (pruning's
// graceful-degradation path).
func bandedDemand(n int) *workload.Demand {
	band := &workload.Demand{N: n}
	for u := 1; u <= n; u++ {
		for w := 1; w <= 3 && u+w <= n; w++ {
			band.Pairs = append(band.Pairs, workload.PairCount{Src: u, Dst: u + w, Count: int64(4 - w)})
			band.Total += int64(4 - w)
		}
	}
	return band
}

// TestSolverPrunedMatchesExhaustive is the differential property test of
// the PR 4 solver: on every demand family and arity, the pruned DP's cost
// must be bit-identical to the exhaustive DP's, and both trees must be
// valid witnesses of their (equal) costs.
func TestSolverPrunedMatchesExhaustive(t *testing.T) {
	for _, tc := range diffDemands(t) {
		t.Run(tc.name, func(t *testing.T) {
			pruned, err := NewSolver(tc.d)
			if err != nil {
				t.Fatal(err)
			}
			exact, err := NewSolver(tc.d, WithoutPruning())
			if err != nil {
				t.Fatal(err)
			}
			for k := 2; k <= 6; k++ {
				ptree, pcost, err := pruned.Optimal(k)
				if err != nil {
					t.Fatalf("k=%d pruned: %v", k, err)
				}
				etree, ecost, err := exact.Optimal(k)
				if err != nil {
					t.Fatalf("k=%d exhaustive: %v", k, err)
				}
				if pcost != ecost {
					t.Fatalf("k=%d: pruned cost %d != exhaustive cost %d", k, pcost, ecost)
				}
				if err := ptree.Validate(); err != nil {
					t.Fatalf("k=%d pruned tree invalid: %v", k, err)
				}
				if got := TotalDistance(ptree, tc.d); got != pcost {
					t.Fatalf("k=%d: pruned tree distance %d != cost %d", k, got, pcost)
				}
				if got := TotalDistance(etree, tc.d); got != ecost {
					t.Fatalf("k=%d: exhaustive tree distance %d != cost %d", k, got, ecost)
				}
			}
		})
	}
}

// TestRootMonotonicityCounterexample pins the reason the Solver does NOT
// use the classic Knuth root window r*(i,j-1) ≤ r*(i,j) ≤ r*(i+1,j): the
// boundary-traffic cost W violates the quadrangle inequality, and on this
// 4-node demand (randomDemand(4, 0.5, 0), inlined for stability) the
// optimal root of [1,4] lies strictly outside the window, so a window-
// pruned DP would report cost 63 instead of the true 57. Any future
// attempt to reintroduce window pruning must get past this test.
func TestRootMonotonicityCounterexample(t *testing.T) {
	d := &workload.Demand{N: 4, Pairs: []workload.PairCount{
		{Src: 1, Dst: 3, Count: 5}, {Src: 1, Dst: 4, Count: 9},
		{Src: 2, Dst: 1, Count: 8}, {Src: 3, Dst: 1, Count: 7},
		{Src: 4, Dst: 1, Count: 7}, {Src: 4, Dst: 2, Count: 3},
		{Src: 4, Dst: 3, Count: 2},
	}}
	s, err := NewSolver(d, WithoutPruning())
	if err != nil {
		t.Fatal(err)
	}
	_, cost, err := s.Optimal(2)
	if err != nil {
		t.Fatal(err)
	}
	if cost != 57 {
		t.Fatalf("optimal cost %d, want 57", cost)
	}
	rootOf := func(i, j int) int { return int(s.root[s.sc.t.at(i, j)]) }
	lo, hi := rootOf(1, 3), rootOf(2, 4)
	r := rootOf(1, 4)
	if r >= lo && r <= hi {
		t.Skipf("demand no longer violates the window (roots %d ≤ %d ≤ %d); find a new counterexample before pruning by windows", lo, r, hi)
	}
	// The window really is violated — and pruning to it would be lossy.
	best := int64(inf)
	for rr := lo; rr <= hi; rr++ {
		if v := s.splitCost(1, rr, 4); v < best {
			best = v
		}
	}
	if best+s.sc.W(1, 4) == cost {
		t.Fatal("window search matched the optimum; counterexample lost its teeth")
	}
}

// TestSolverArityReuse checks the scratch-recycling contract: one Solver
// answering k = 2..10 (in mixed order, with repeats) must give the same
// costs as fresh one-shot solves.
func TestSolverArityReuse(t *testing.T) {
	d := workload.DemandFromTrace(workload.Temporal(48, 3000, 0.5, 9))
	s, err := NewSolver(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 10, 3, 8, 2, 5, 10, 4} {
		_, got, err := s.Optimal(k)
		if err != nil {
			t.Fatal(err)
		}
		_, want, err := Optimal(d, k)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("k=%d: reused solver cost %d != fresh solver cost %d", k, got, want)
		}
	}
}

// TestSolverSharedSegmentCosts pins the cross-arity sharing that the
// Tables 1–7 rewiring relies on: the boundary-traffic matrix is built at
// construction and the same instance serves every arity.
func TestSolverSharedSegmentCosts(t *testing.T) {
	d := randomDemand(20, 0.4, 11)
	s, err := NewSolver(d)
	if err != nil {
		t.Fatal(err)
	}
	sc := s.sc
	for _, k := range []int{2, 4, 7} {
		if _, _, err := s.Optimal(k); err != nil {
			t.Fatal(err)
		}
		if s.sc != sc {
			t.Fatalf("k=%d: Optimal rebuilt segmentCosts", k)
		}
	}
}

// TestSolverWorkerScheduler forces the worker pool on a small instance
// (threshold dropped to zero) and checks determinism across worker
// counts, more workers than processors included; running under -race
// additionally proves the scheduler's memory accesses are clean.
func TestSolverWorkerScheduler(t *testing.T) {
	old := spawnWorkThreshold
	spawnWorkThreshold = 0
	defer func() { spawnWorkThreshold = old }()
	d := workload.DemandFromTrace(workload.Zipf(40, 3000, 1.1, 5))
	_, want, err := Optimal(d, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		s, err := NewSolver(d, WithSolverWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 2; trial++ {
			_, got, err := s.Optimal(4)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("workers=%d trial=%d: cost %d, want %d", workers, trial, got, want)
			}
		}
	}
}

// TestSolverPruningActuallyPrunes guards the perf claim: on a skewed
// demand, the admissible bound must exclude a substantial share of the
// interior roots (otherwise the 2× speedup silently regressed to the
// exhaustive scan).
func TestSolverPruningActuallyPrunes(t *testing.T) {
	d := workload.DemandFromTrace(workload.Zipf(64, 4000, 1.2, 3))
	s, err := NewSolver(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Optimal(8); err != nil {
		t.Fatal(err)
	}
	eval, skip := s.rootsEvaluated.Load(), s.rootsSkipped.Load()
	if skip == 0 || skip < eval {
		t.Errorf("pruning excluded %d of %d interior roots; expected a majority on a Zipf demand", skip, eval+skip)
	}
}

// --- Flattened triangular layout -------------------------------------------

// TestTriIndexing checks the triangular index is a bijection onto
// [0, n(n+1)/2) with rows contiguous.
func TestTriIndexing(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 40} {
		tr := newTri(n)
		if got, want := tr.size(), n*(n+1)/2; got != want {
			t.Fatalf("n=%d: size %d, want %d", n, got, want)
		}
		seen := make([]bool, tr.size())
		next := 0
		for i := 1; i <= n; i++ {
			for j := i; j <= n; j++ {
				at := tr.at(i, j)
				if at != next {
					t.Fatalf("n=%d: at(%d,%d)=%d, want %d (row-major contiguous)", n, i, j, at, next)
				}
				if seen[at] {
					t.Fatalf("n=%d: index %d hit twice", n, at)
				}
				seen[at] = true
				next++
			}
		}
	}
}

// TestSegmentCostsFlatMatchesNaive extends the naiveW cross-check to the
// flattened storage: both the W accessor and the raw triangular slice must
// agree with the per-pair definition.
func TestSegmentCostsFlatMatchesNaive(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		d := randomDemand(14, 0.4, seed+100)
		sc, err := newSegmentCosts(d)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := len(sc.w), 14*15/2; got != want {
			t.Fatalf("flat matrix has %d entries, want %d", got, want)
		}
		for i := 1; i <= 14; i++ {
			for j := i; j <= 14; j++ {
				want := naiveW(d, i, j)
				if got := sc.W(i, j); got != want {
					t.Fatalf("W(%d,%d)=%d want %d (seed %d)", i, j, got, want, seed)
				}
				if got := sc.w[sc.t.at(i, j)]; got != want {
					t.Fatalf("flat w[at(%d,%d)]=%d want %d (seed %d)", i, j, got, want, seed)
				}
			}
		}
	}
}

// TestSolverRandomizedAgainstBruteForce adds seeded random shapes on top
// of the family grid, cross-checked against the independent tree
// enumerator (not just the exhaustive DP).
func TestSolverRandomizedAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(7)
		k := 2 + rng.Intn(4)
		d := randomDemand(n, 0.3+rng.Float64()*0.5, rng.Int63())
		if len(d.Pairs) == 0 {
			continue
		}
		_, cost, err := Optimal(d, k)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteForceOptimal(d, k); cost != want {
			t.Fatalf("trial %d (n=%d k=%d): DP cost %d != brute force %d", trial, n, k, cost, want)
		}
	}
}
