package statictree

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/ksan-net/ksan/internal/workload"
)

// --- Differential demand families -----------------------------------------
//
// The Solver must produce costs bit-identical to the exhaustive DP on
// every family the evaluation exercises plus adversarial shapes that
// stressed the former pruned root search: a single dominant pair (root
// bounds very uneven) and banded demands (root bounds all tie).

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

// bandedDemand is an adversarial demand for root ties: all traffic runs
// between ids at distance ≤ 3, so segment boundary costs are near-flat
// and the root bounds of the former pruned search tie almost everywhere,
// the case where the reconstruction's tie rule decides most roots.
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

// exhaustiveSolver is the row-major reference fill of layoutref_test.go
// in its exhaustive mode: every root of every segment is evaluated with
// the full split cost, as the seed DP did. It fills on one goroutine.
func exhaustiveSolver(tb testing.TB, d *workload.Demand) *rowMajorSolver {
	tb.Helper()
	sc, err := newSegmentCosts(d)
	if err != nil {
		tb.Fatal(err)
	}
	return &rowMajorSolver{n: d.N, sc: sc, exhaustive: true, workers: 1}
}

// TestSolverMatchesExhaustive is the differential property test of the
// hole-plane root cost: on every demand family and arity, the Solver's
// cost must be bit-identical to the exhaustive root scan's, and both
// trees must be valid witnesses of their (equal) costs.
func TestSolverMatchesExhaustive(t *testing.T) {
	for _, tc := range diffDemands(t) {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewSolver(tc.d)
			if err != nil {
				t.Fatal(err)
			}
			exact := exhaustiveSolver(t, tc.d)
			for k := 2; k <= 6; k++ {
				tree, cost, err := s.Optimal(k)
				if err != nil {
					t.Fatalf("k=%d: %v", k, err)
				}
				etree, ecost, err := exact.Optimal(k)
				if err != nil {
					t.Fatalf("k=%d exhaustive: %v", k, err)
				}
				if cost != ecost {
					t.Fatalf("k=%d: cost %d != exhaustive cost %d", k, cost, ecost)
				}
				if err := tree.Validate(); err != nil {
					t.Fatalf("k=%d tree invalid: %v", k, err)
				}
				if got := TotalDistance(tree, tc.d); got != cost {
					t.Fatalf("k=%d: tree distance %d != cost %d", k, got, cost)
				}
				if got := TotalDistance(etree, tc.d); got != ecost {
					t.Fatalf("k=%d: exhaustive tree distance %d != cost %d", k, got, ecost)
				}
			}
		})
	}
}

// FuzzSolver fuzzes the hole-plane fill against both root searches of
// layoutref_test.go: the cost against the exhaustive scan, and every
// plane cell, each segment's re-derived root and the tree against the
// pruned search, whose root table the reconstruction's tie rule
// reproduces; the hole planes are checked against their definition. The
// first byte picks n = 1..48, the second k = 2..12 (so some k exceed n),
// the third the demand's shape and the rest its pairs (fuzzDemand). Each
// input is solved inline and on three workers with the spawn threshold
// at zero, so every diagonal with more than one segment is pooled.
func FuzzSolver(f *testing.F) {
	old := spawnWorkThreshold
	spawnWorkThreshold = 0
	f.Cleanup(func() { spawnWorkThreshold = old })
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n, k := 1+int(data[0])%48, 2+int(data[1])%11
		d := fuzzDemand(n, data[2], data[3:])
		sc, err := newSegmentCosts(d)
		if err != nil {
			t.Fatal(err)
		}
		_, want, err := exhaustiveSolver(t, d).Optimal(k)
		if err != nil {
			t.Fatal(err)
		}
		ref := &rowMajorSolver{n: n, sc: sc, workers: 1}
		refTree, _, err := ref.Optimal(k)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			s, err := NewSolver(d, WithSolverWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			if err := matchRowMajor(s, ref, refTree, k); err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			if got := s.get2(1, n, 1); got != want {
				t.Fatalf("n=%d k=%d workers=%d: cost %d, exhaustive scan %d", n, k, workers, got, want)
			}
			if err := checkHolePlanes(s); err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
		}
	})
}

// fuzzDemand builds a demand on n nodes of the shape that shape mod 3
// picks from the bytes of rest:
//
//   - 0, sparse pairs: each three bytes are a pair's ends and its count;
//   - 1, heavy ties: every pair at id distance 1..w has count 1, where w
//     is 1 + rest[0] mod 4 (all pairs when rest is empty), and each
//     further two bytes add one pair of count 1;
//   - 2, one hot pair: the first two bytes name a pair of count 10 000
//     over a neighbour chain of count 1, and each further byte adds its
//     value to one chain link.
func fuzzDemand(n int, shape byte, rest []byte) *workload.Demand {
	d := &workload.Demand{N: n}
	add := func(u, v int, c int64) {
		d.Pairs = append(d.Pairs, workload.PairCount{Src: u, Dst: v, Count: c})
		d.Total += c
	}
	id := func(b byte) int { return 1 + int(b)%n }
	switch shape % 3 {
	case 0:
		for ; len(rest) >= 3; rest = rest[3:] {
			add(id(rest[0]), id(rest[1]), 1+int64(rest[2]))
		}
	case 1:
		w := n
		if len(rest) > 0 {
			w, rest = 1+int(rest[0])%4, rest[1:]
		}
		for u := 1; u <= n; u++ {
			for v := u + 1; v <= min(n, u+w); v++ {
				add(u, v, 1)
			}
		}
		for ; len(rest) >= 2; rest = rest[2:] {
			add(id(rest[0]), id(rest[1]), 1)
		}
	default:
		if len(rest) >= 2 {
			add(id(rest[0]), id(rest[1]), 10_000)
			rest = rest[2:]
		}
		for u := 1; u < n; u++ {
			add(u, u+1, 1)
		}
		for x, b := range rest {
			if u := 1 + x%max(1, n-1); u < n {
				add(u, u+1, int64(b))
			}
		}
	}
	return d
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
	s := exhaustiveSolver(t, d)
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
