package statictree

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/ksan-net/ksan/internal/core"
	"github.com/ksan-net/ksan/internal/workload"
)

const inf = math.MaxInt64 / 4

// spawnWorkThreshold is the per-diagonal kernel step count (segments ×
// (2k−3) × (length−1), see pooled) below which a diagonal is filled
// inline by the caller instead of by the worker pool (a var so tests can
// force the pool on small instances). Solves alternated with a
// one-processor inline fill on a 2-vCPU host set it (EXPERIMENTS.md, "The
// DP pool threshold"): at 32 768 and 65 536 the pooled n = 128 and 160
// solves at k = 8 ran 1.11–1.23× slower on two processors than inline,
// and at 131 072 no solve of n = 64..256 at k ∈ {2, 4, 8} was slower,
// while n = 256, k = 8 read 0.79–0.82× and n = 511, k = 4 0.63×.
var spawnWorkThreshold = 131072

// barrierSpins is how many times a fill worker that has reached the
// barrier between two pooled diagonals re-reads the arrival count before
// it starts yielding its processor with runtime.Gosched on every read.
const barrierSpins = 64

// Optimal computes an optimal static routing-based k-ary search tree
// network for the given demand (Theorem 2/15): a tree minimizing
// Σ d_T(u,v)·D[u,v] among all routing-based k-ary search trees. It returns
// the tree and its total distance.
//
// It is a one-shot convenience wrapper over Solver; callers that need the
// optimum at several arities for the same demand (the Tables 1–7 sweep
// runs k=2..10) should build one Solver and call its Optimal method per
// arity, sharing the O(n²) boundary-traffic matrix and the DP scratch.
func Optimal(d *workload.Demand, k int) (*core.Tree, int64, error) {
	s, err := NewSolver(d)
	if err != nil {
		return nil, 0, err
	}
	return s.Optimal(k)
}

// Solver answers Optimal(k) queries for one fixed demand at any arity.
// Construction precomputes the boundary-traffic matrix W (O(n²), shared by
// every arity); each Optimal call runs the O(n³·k) dynamic program of the
// paper's Theorem 2/15 proof, with no root search: hole planes (see
// fillSegment) make every segment 2k−3 min-plus passes, whatever the
// demand, and one worker pool per call fills the diagonals worth sharing
// (see run).
//
// Scratch ownership mirrors the serve-path contract of DESIGN.md §3: the
// DP tables are owned by the Solver and recycled across Optimal calls, so
// a Solver is NOT safe for concurrent use — serialize Optimal calls (they
// already use all cores internally) or build one Solver per goroutine.
// The demand is only read during construction; the returned trees are
// freshly built and independent of the Solver.
type Solver struct {
	n       int
	sc      *segmentCosts
	workers int

	// Per-call state, reused across Optimal calls (grown, never cleared:
	// every fill writes each cell of its segment before anything reads it).
	//
	// dp2[(t-1)*T + tri(i,j)] = F(i,j,t), the minimal cost of partitioning
	// segment [i,j] into AT MOST t routing-based k-ary search trees (the
	// children of some node), t ∈ 1..k-1, where the cost of a tree on
	// [a,b] includes W[a,b], the traffic crossing the link to its parent.
	// Plane k is not stored: a node hangs at most k-1 trees on either side
	// of its id, so nothing reads it.
	//
	// hole[(t-2)*T + tri(i,j)] = H(i,j,t), t ∈ 2..k-1: the least cost of
	// [i,j] laid out as trees, a hole for a root's id, then trees, in at
	// most t child slots, where an empty left side takes a slot (the
	// routing element below the id delimits it). H(·,·,1) is plane 1
	// shifted by one id and is not stored.
	//
	// The planes are row-major triangles (tri.at: row i is contiguous in
	// j). Every min-plus pass reads row i of one plane against column j
	// of plane 1 (fixed j, i varying); col1 repeats plane 1 column-major
	// (tri.col), so both reads are contiguous slices. col1 and hole are
	// views into dp2's allocation after its k-1 row-major planes: the
	// table is 2k-2 planes of T words.
	k, T int     // current arity; T = n(n+1)/2 plane size
	dp2  []int64 // planes 1..k-1 row-major, col1, then the hole planes
	col1 []int64 // col1[tri.col(i,j)] = dp2(i,j,1)
	hole []int64 // hole planes 2..k-1, row-major
}

// SolverOption configures a Solver at construction.
type SolverOption func(*Solver)

// WithSolverWorkers bounds the DP fill's worker count (default GOMAXPROCS).
// Values below 1 are ignored. Callers embedding Optimal calls inside their
// own worker pools can set 1 to avoid oversubscription.
func WithSolverWorkers(n int) SolverOption {
	return func(s *Solver) {
		if n >= 1 {
			s.workers = n
		}
	}
}

// NewSolver builds the shared per-demand state: the flattened triangular
// boundary-traffic matrix. A demand pair naming an id outside 1..N is an
// error. Memory is Θ(n²) words here plus (2k−2)·n(n+1)/2 words of DP
// table on the first Optimal(k) call; callers should keep n in the low
// thousands (the paper itself could not compute the optimum for its
// 10⁴-node Facebook trace; see Table 3).
func NewSolver(d *workload.Demand, opts ...SolverOption) (*Solver, error) {
	n := d.N
	if n > 4096 {
		return nil, fmt.Errorf("statictree: n=%d too large for the cubic DP (limit 4096); WeightBalanced approximates beyond it", n)
	}
	sc, err := newSegmentCosts(d)
	if err != nil {
		return nil, err
	}
	s := &Solver{n: n, sc: sc, workers: runtime.GOMAXPROCS(0)}
	for _, o := range opts {
		o(s)
	}
	return s, nil
}

// Optimal runs the DP at arity k and reconstructs an optimal tree. The
// cost is deterministic and independent of worker count, and the
// differential tests pin every cell, root and tree to the pruned and
// exhaustive root searches kept in layoutref_test.go; the returned tree
// is one cost-minimal witness.
func (s *Solver) Optimal(k int) (*core.Tree, int64, error) {
	if err := core.CheckIDRange(s.n, k); err != nil {
		return nil, 0, fmt.Errorf("statictree: %w", err)
	}
	s.prepare(k)
	s.run()
	spec := s.treeSpec(1, s.n)
	tree, err := core.Build(k, spec)
	if err != nil {
		return nil, 0, fmt.Errorf("statictree: DP produced an invalid tree: %w", err)
	}
	return tree, s.get2(1, s.n, 1), nil
}

// prepare sizes the DP tables for arity k, recycling prior allocations.
func (s *Solver) prepare(k int) {
	s.k = k
	T := s.sc.t.size()
	s.T = T
	if size := (2*k - 2) * T; cap(s.dp2) < size {
		s.dp2 = make([]int64, size)
	} else {
		s.dp2 = s.dp2[:size]
	}
	s.col1 = s.dp2[(k-1)*T : k*T]
	s.hole = s.dp2[k*T:]
}

// get2 reads dp2[i][j][t] (min over up to t parts); empty segments are
// free.
func (s *Solver) get2(i, j, t int) int64 {
	if i > j {
		return 0
	}
	if t < 1 {
		return inf
	}
	return s.dp2[(t-1)*s.T+s.sc.t.at(i, j)]
}

// run fills the table diagonal by diagonal: all segments of one length
// depend only on shorter ones. A diagonal worth sharing (pooled) is filled
// by the worker pool of fillPool, every other one inline by the caller.
// The pooled lengths form one range, since segs·(length−1) =
// (n−length+1)·(length−1) is concave in length, so a call starts at most
// one pool; short diagonals at either end start no goroutine and wait on
// no barrier.
func (s *Solver) run() {
	for length := 1; length <= s.n; length++ {
		if !s.pooled(length) {
			for i := 1; i <= s.n-length+1; i++ {
				s.fillSegment(i, i+length-1)
			}
			continue
		}
		hi := length
		for hi < s.n && s.pooled(hi+1) {
			hi++
		}
		s.fillPool(length, hi)
		length = hi
	}
}

// pooled reports whether the diagonal of segments of this length goes to
// the worker pool: there is more than one worker and more than one
// segment, and the diagonal's kernel steps reach spawnWorkThreshold. A
// segment of length L is 2k−3 min-plus passes of L−1 steps each on any
// demand, so the count is exact. Below the threshold, sharing costs more
// than it buys.
func (s *Solver) pooled(length int) bool {
	segs := s.n - length + 1
	return s.workers > 1 && segs > 1 && segs*(2*s.k-3)*(length-1) >= spawnWorkThreshold
}

// fillPool fills the diagonals of lengths lo..hi on one pool of nw
// workers: the caller as worker 0 and nw−1 goroutines that exit after
// diagonal hi. Within a diagonal a worker claims max(1, segs/(16·nw))
// segments at a time from the diagonal's own atomic counter. Every
// segment of a diagonal costs the same, but a worker the host
// deschedules falls behind; dynamic claims let the others take its
// share. Between two diagonals the workers meet at a barrier, a count of
// arrivals that only grows: a worker that arrives early re-reads it
// barrierSpins times and then yields with runtime.Gosched between reads.
// It never parks: a parked worker's thread sleeps, and waking it at each
// of ~n diagonals costs more than the fill of a short diagonal.
func (s *Solver) fillPool(lo, hi int) {
	nw := min(s.workers, s.n-lo+1) // diagonal lo is the widest
	claims := make([]atomic.Int64, hi-lo+1)
	var arrived atomic.Int64
	work := func() {
		for length := lo; length <= hi; length++ {
			segs := s.n - length + 1
			chunk := max(1, segs/(16*nw))
			next := &claims[length-lo]
			for {
				end := int(next.Add(int64(chunk)))
				start := end - chunk + 1
				if start > segs {
					break
				}
				for i := start; i <= min(end, segs); i++ {
					s.fillSegment(i, i+length-1)
				}
			}
			if length == hi {
				return
			}
			target := int64(length-lo+1) * int64(nw)
			if arrived.Add(1) < target {
				for spin := 0; arrived.Load() < target; spin++ {
					if spin >= barrierSpins {
						runtime.Gosched()
					}
				}
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(nw - 1)
	for range nw - 1 {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// fillSegment computes F(i,j,·), its column copy and H(i,j,·); all
// shorter segments are already filled. Writing F1 for F(·,·,1) and
// "last" for the column F1(l+1,j), l = i..j-1, every value but the
// diagonal's is one min-plus pass of a row against last:
//
//   - t = 1, the root: an empty right side takes the slot above the root
//     id, so the right side is empty, F(i,j-1,k-1), or its last tree is
//     some [l+1,j] and the rest, hole and all, fits k-1 slots,
//     H(i,l,k-1) + F1(l+1,j). Every root, edge or interior, and every
//     left/right split of the k slots is one of those layouts, so no
//     root is searched and nothing depends on the demand's shape.
//   - F(i,j,t), t = 2..k-1, peels the last child tree off the segment:
//     a forest of ≤ t trees is one of ≤ t-1 trees, or one of ≤ t-1 trees
//     on [i,l] plus a last tree on [l+1,j].
//   - H(i,j,t), t = 2..k-1, peels the last tree right of the hole the
//     same way, or has the hole at j: F(i,j-1,t).
//
// That is 2k−3 passes of j−i steps each. A classic Knuth-style window
// r*(i,j-1) ≤ r ≤ r*(i+1,j) could not have shortened the root's pass:
// the boundary-traffic cost W violates the quadrangle inequality, and
// root monotonicity genuinely fails (TestRootMonotonicityCounterexample
// pins a 4-node demand where the optimal root of [1,4] lies outside the
// window).
func (s *Solver) fillSegment(i, j int) {
	k, T := s.k, s.T
	row := int(s.sc.t.off[i]) // tri(i,i)
	d := j - i
	base := row + d // tri(i,j)
	cell := s.sc.t.col(i, j)
	if d == 0 {
		for t := 1; t < k; t++ {
			s.dp2[(t-1)*T+base] = s.sc.w[base]
		}
		s.col1[cell] = s.sc.w[base]
		for t := 2; t < k; t++ {
			s.hole[(t-2)*T+base] = 0
		}
		return
	}
	last := s.col1[cell+1 : cell+1+d] // F1(l+1, j) for l = i..j-1
	top := (k - 2) * T
	s.dp2[base] = min(s.dp2[top+base-1], s.holePass(k-1, row, last)) + s.sc.w[base]
	s.col1[cell] = s.dp2[base]
	for t := 2; t < k; t++ {
		prev := s.dp2[(t-2)*T+row:] // F(i, i.., t-1)
		s.dp2[(t-1)*T+base] = min(prev[d], minPlus(prev, last))
		s.hole[(t-2)*T+base] = min(s.dp2[(t-1)*T+base-1], s.holePass(t-1, row, last))
	}
}

// holePass returns min over l = i..j-1 of H(i,l,t) + F1(l+1,j), where
// row = tri(i,i) and last = F1(i+1..j, j). H(i,i,1) is 0 and H(i,l,1) =
// F1(i,l-1) for l > i, so at t = 1 the pass reads plane 1 one id behind.
func (s *Solver) holePass(t, row int, last []int64) int64 {
	if t == 1 {
		return min(last[0], minPlus(s.dp2[row:], last[1:]))
	}
	return minPlus(s.hole[(t-2)*s.T+row:], last)
}

// bestRootSplit re-derives an argmin of the 1-tree cost on [i,j]: the
// root id and the left/right child counts. The fill keeps no root table;
// the rule below picks the root the former pruned root search stored
// (rowMajorSolver in layoutref_test.go), so trees stay as they were:
//
//  1. r = i, if F(i+1,j,k-1) reaches the cost;
//  2. else r = j, if F(i,j-1,k-1) reaches it;
//  3. else the interior root with the least bound F(i,r-1,k-1) +
//     F(r+1,j,k-1) (the first on ties), if its split reaches the cost;
//  4. else the first interior root, in order, whose split reaches it.
func (s *Solver) bestRootSplit(i, j int) (r, dl, dr int) {
	k := s.k
	target := s.get2(i, j, 1) - s.sc.W(i, j)
	switch {
	case i == j:
		return i, 0, 0
	case s.get2(i+1, j, k-1) == target:
		return i, 0, s.minParts(i+1, j, k-1)
	case s.get2(i, j-1, k-1) == target:
		return j, s.minParts(i, j-1, k-1), 0
	}
	// A segment of two ids has only edge roots, so [i,j] has an interior
	// root here.
	minLB, minR := int64(inf), 0
	for r := i + 1; r < j; r++ {
		if v := s.get2(i, r-1, k-1) + s.get2(r+1, j, k-1); v < minLB {
			minLB, minR = v, r
		}
	}
	if dl, dr, ok := s.interiorSplit(i, minR, j, target); ok {
		return minR, dl, dr
	}
	for r := i + 1; r < j; r++ {
		if dl, dr, ok := s.interiorSplit(i, r, j, target); ok {
			return r, dl, dr
		}
	}
	panic(fmt.Sprintf("statictree: no root reproduces the 1-tree cost on [%d,%d]", i, j))
}

// interiorSplit reports whether the interior root r of [i,j] reaches
// target, with dl ≤ k-1 trees on [i,r-1] and k-dl on [r+1,j], and if so
// the child counts of the first dl that does.
func (s *Solver) interiorSplit(i, r, j int, target int64) (dl, dr int, ok bool) {
	for dl := 1; dl <= s.k-1; dl++ {
		if s.get2(i, r-1, dl)+s.get2(r+1, j, s.k-dl) == target {
			return s.minParts(i, r-1, dl), s.minParts(r+1, j, s.k-dl), true
		}
	}
	return 0, 0, false
}

// minParts returns the smallest part count t ≤ maxT achieving
// dp2[i][j][maxT]; the optimal forest then uses exactly t trees.
func (s *Solver) minParts(i, j, maxT int) int {
	want := s.get2(i, j, maxT)
	for t := 1; t <= maxT; t++ {
		if s.get2(i, j, t) == want {
			return t
		}
	}
	panic("statictree: dp2 value unreachable")
}

// forestParts splits [i,j] into exactly t consecutive segments reproducing
// dp2[i][j][t]; t must be minimal for the value (minParts), which
// guarantees the reconstruction uses all t parts.
func (s *Solver) forestParts(i, j, t int) [][2]int {
	if t == 1 {
		return [][2]int{{i, j}}
	}
	want := s.get2(i, j, t)
	for l := i; l < j; l++ {
		rest := s.get2(l+1, j, t-1)
		if s.get2(i, l, 1)+rest == want {
			tt := s.minParts(l+1, j, t-1)
			return append([][2]int{{i, l}}, s.forestParts(l+1, j, tt)...)
		}
	}
	panic("statictree: forest split unreachable")
}

// treeSpec reconstructs the optimal tree on [i,j] as a core.Spec. The root
// id always appears as a routing element (routing-based construction): the
// threshold between the last left child and the first right child is r,
// and when one side is empty r still delimits an empty slot.
func (s *Solver) treeSpec(i, j int) *core.Spec {
	r, dl, dr := s.bestRootSplit(i, j)
	spec := &core.Spec{ID: r}
	if dl > 0 {
		parts := s.forestParts(i, r-1, dl)
		for idx, part := range parts {
			spec.Children = append(spec.Children, s.treeSpec(part[0], part[1]))
			if idx < len(parts)-1 {
				spec.Thresholds = append(spec.Thresholds, part[1])
			} else {
				spec.Thresholds = append(spec.Thresholds, r)
			}
		}
	} else if dr > 0 {
		// Empty slot holding just the root id keeps the tree routing-based.
		spec.Thresholds = append(spec.Thresholds, r)
		spec.Children = append(spec.Children, nil)
	}
	if dr > 0 {
		parts := s.forestParts(r+1, j, dr)
		for idx, part := range parts {
			spec.Children = append(spec.Children, s.treeSpec(part[0], part[1]))
			if idx < len(parts)-1 {
				spec.Thresholds = append(spec.Thresholds, part[1])
			}
		}
	} else if dl > 0 {
		// The slot above the trailing threshold r stays empty.
		spec.Children = append(spec.Children, nil)
	}
	if len(spec.Children) == 0 {
		spec.Children = nil
	}
	return spec
}
