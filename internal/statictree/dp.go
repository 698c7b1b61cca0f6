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

// spawnWorkThreshold is the estimated per-diagonal operation count
// (segments × length × k) below which a diagonal is filled inline by the
// caller instead of by the worker pool (a var so tests can force the pool
// on small instances). Solves alternated with a one-processor inline fill
// on a 2-vCPU host set it (EXPERIMENTS.md, "The DP pool threshold"): at
// 4 096 the pooled diagonals of n = 64 and 96 solves made them up to 11%
// slower on two processors than inline, at 16 384 an n = 96, k = 8 solve
// was still 4% slower, and at 20 480 no solve of n = 64..256 at
// k ∈ {2, 4, 8} was slower.
var spawnWorkThreshold = 20480

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
// paper's Theorem 2/15 proof, with an admissible-bound root pruning that
// typically removes the k-factor from the root search (see fillSegment)
// and one worker pool per call for the diagonals worth sharing (see run).
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
	// dp2[(t-1)*T + tri(i,j)] = minimal cost of partitioning segment [i,j]
	// into AT MOST t routing-based k-ary search trees (the children of
	// some node), t ∈ 1..k-1, where the cost of a tree on [a,b] includes
	// W[a,b], the traffic crossing the link to its parent. The exact-t
	// table of the seed DP is redundant — the recurrence closes over the
	// prefix-minimum form directly (see fillSegment). Plane k is not
	// stored: a node hangs at most k-1 trees on either side of its id, so
	// nothing reads it.
	//
	// The planes are row-major triangles (tri.at: row i is contiguous in
	// j). Each min-plus inner loop also walks a column (fixed j, i
	// varying) of one plane: the forest recurrence of plane 1, the root
	// bound of plane k-1. col1 and colTop repeat those two planes
	// column-major (tri.col), so both reads of every inner loop are
	// contiguous slices. They are views into dp2's allocation after its
	// k-1 row-major planes; at k = 2 plane 1 is plane k-1 and they are one
	// view. The table is k+1 planes of T words, 2 at k = 2.
	k, T   int     // current arity; T = n(n+1)/2 plane size
	dp2    []int64 // planes 1..k-1 row-major, then the column copies
	col1   []int64 // col1[tri.col(i,j)] = dp2(i,j,1)
	colTop []int64 // colTop[tri.col(i,j)] = dp2(i,j,k-1)
	root   []int32 // root[tri(i,j)] = an argmin root of the 1-tree cost on [i,j]
	lb     []int64 // the calling worker's bound scratch for prunedRootSearch

	// Pruning diagnostics: exact O(k) split evaluations vs roots excluded
	// by the admissible bound, per Optimal call. Each fill worker counts
	// into its own fillWorker and adds its totals here once.
	rootsEvaluated atomic.Int64
	rootsSkipped   atomic.Int64
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
// error. Memory is Θ(n²) words here plus (k+1)·n(n+1)/2 words of DP
// table (2·n(n+1)/2 at k = 2) on the first Optimal(k) call; callers
// should keep n in the low thousands (the paper itself could not compute
// the optimum for its 10⁴-node Facebook trace; see Table 3).
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
// cost is deterministic and independent of worker count, and the root
// pruning is exact (the differential tests pin it to an exhaustive root
// scan kept in layoutref_test.go); the returned tree is one cost-minimal
// witness.
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
	planes := k + 1 // k-1 row-major planes and two column copies
	if k == 2 {
		planes = 2 // plane 1 is plane k-1: one copy serves both
	}
	if size := planes * T; cap(s.dp2) < size {
		s.dp2 = make([]int64, size)
	} else {
		s.dp2 = s.dp2[:size]
	}
	s.col1 = s.dp2[(k-1)*T : k*T]
	s.colTop = s.dp2[(planes-1)*T:]
	if s.root == nil {
		s.root = make([]int32, s.T)
		s.lb = make([]int64, s.n+1)
	}
	s.rootsEvaluated.Store(0)
	s.rootsSkipped.Store(0)
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

// splitCostBeat is the cheapest way to hang the children of an interior
// root r of [i,j] — dl ≤ k-1 child trees on [i,r-1] and k-dl on [r+1,j],
// as the routing array has room for k children — with an early exit: as
// dl grows, the right side is allowed fewer parts, so its dp2 term only
// ever grows; once even the left side's unconstrained minimum (lmin, its
// k-1-part dp2) plus that right term reaches beat, no later dl can beat
// the incumbent and the scan stops. The returned value is the exact
// minimum whenever it is below beat (values ≥ beat may be partial, which
// is sound: callers only use them for `< beat` comparisons).
func (s *Solver) splitCostBeat(i, r, j int, beat int64) int64 {
	k, T := s.k, s.T
	li := s.sc.t.at(i, r-1)
	ri := s.sc.t.at(r+1, j)
	lmin := s.dp2[(k-2)*T+li]
	best := int64(inf)
	for dl := 1; dl <= k-1; dl++ {
		rv := s.dp2[(k-dl-1)*T+ri]
		if lmin+rv >= beat && best < inf {
			break
		}
		if v := s.dp2[(dl-1)*T+li] + rv; v < best {
			best = v
		}
	}
	return best
}

// fillWorker is one fill worker's private state: the bound scratch of
// prunedRootSearch (length ≥ n+1) and its pruning counts, added to the
// Solver's counters once, when the worker is done.
type fillWorker struct {
	lb                 []int64
	evaluated, skipped int64
}

// run fills the table diagonal by diagonal: all segments of one length
// depend only on shorter ones. A diagonal worth sharing (pooled) is filled
// by the worker pool of fillPool, every other one inline by the caller.
// The pooled lengths form one range, since segs·length = (n−length+1)·
// length is concave in length, so a call starts at most one pool;
// short diagonals at either end start no goroutine and wait on no
// barrier.
func (s *Solver) run() {
	w := fillWorker{lb: s.lb}
	for length := 1; length <= s.n; length++ {
		if !s.pooled(length) {
			for i := 1; i <= s.n-length+1; i++ {
				s.fillSegment(i, i+length-1, &w)
			}
			continue
		}
		hi := length
		for hi < s.n && s.pooled(hi+1) {
			hi++
		}
		s.fillPool(length, hi, &w)
		length = hi
	}
	s.rootsEvaluated.Add(w.evaluated)
	s.rootsSkipped.Add(w.skipped)
}

// pooled reports whether the diagonal of segments of this length goes to
// the worker pool: there is more than one worker and more than one
// segment, and the estimated work segs·length·k reaches
// spawnWorkThreshold. Below it, sharing costs more than it buys.
func (s *Solver) pooled(length int) bool {
	segs := s.n - length + 1
	return s.workers > 1 && segs > 1 && segs*length*s.k >= spawnWorkThreshold
}

// fillPool fills the diagonals of lengths lo..hi on one pool of nw
// workers: the caller as worker 0, with w's scratch, and nw−1 goroutines
// that exit after diagonal hi. Within a diagonal a worker claims
// max(1, segs/(16·nw)) segments at a time from the diagonal's own atomic
// counter, so pruning's skewed segment costs balance to within a chunk.
// Between two diagonals the workers meet at a barrier, a count of
// arrivals that only grows: a worker that arrives early re-reads it
// barrierSpins times and then yields with runtime.Gosched between reads.
// It never parks: a parked worker's thread sleeps, and waking it at each
// of ~n diagonals costs more than the fill of a short diagonal.
func (s *Solver) fillPool(lo, hi int, w *fillWorker) {
	nw := min(s.workers, s.n-lo+1) // diagonal lo is the widest
	claims := make([]atomic.Int64, hi-lo+1)
	var arrived atomic.Int64
	work := func(w *fillWorker) {
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
					s.fillSegment(i, i+length-1, w)
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
			w := fillWorker{lb: make([]int64, s.n+1)}
			work(&w)
			s.rootsEvaluated.Add(w.evaluated)
			s.rootsSkipped.Add(w.skipped)
		}()
	}
	work(w)
	wg.Wait()
}

// fillSegment computes dp2[i][j][·], its two column copies and
// root[i][j]; all shorter segments are already filled. w is the calling
// worker's scratch and counts.
//
// t = 1 is the root search. A classic Knuth-style window
// r*(i,j-1) ≤ r ≤ r*(i+1,j) would be UNSOUND here: the boundary-traffic
// cost W violates the quadrangle inequality, and root monotonicity
// genuinely fails (TestRootMonotonicityCounterexample pins a 4-node demand
// where the optimal root of [1,4] lies outside the window). Instead the
// pruning is branch-and-bound with an admissible bound — exact by
// construction, falling back to full evaluation exactly for the roots the
// bound cannot exclude (see prunedRootSearch).
//
// t = 2..k-1 peels the last child tree off the segment, directly in
// prefix-minimum form: a forest of ≤ t trees is either one of ≤ t-1 trees
// (the t-1 entry) or a forest of ≤ t-1 trees on [i,l] plus a last tree
// on [l+1,j]. The first term walks row i of plane t-1 and the second
// column j of plane 1, read from col1. Peeling the first tree instead
// gives the same minimum, over the same forests.
func (s *Solver) fillSegment(i, j int, w *fillWorker) {
	k, T := s.k, s.T
	row := int(s.sc.t.off[i]) // tri(i,i)
	base := row + j - i       // tri(i,j)
	cell := s.sc.t.col(i, j)
	var best int64
	var bestR int
	if i == j {
		best, bestR = 0, i
	} else {
		var evaluated, skipped int64
		best, bestR, evaluated, skipped = s.prunedRootSearch(i, j, w.lb)
		w.evaluated += evaluated
		w.skipped += skipped
	}
	s.root[base] = int32(bestR)
	s.dp2[base] = best + s.sc.w[base]
	s.col1[cell] = s.dp2[base]
	last := s.col1[cell+1 : cell+1+j-i] // dp2(l+1, j, 1) for l = i..j-1
	for t := 2; t < k; t++ {
		prev := s.dp2[(t-2)*T+row : (t-2)*T+base+1] // dp2(i, i..j, t-1)
		b := prev[j-i]                              // a forest of ≤ t-1 trees is also one of ≤ t
		head := prev[:j-i]
		tail := last[:len(head)]
		for x, v := range head {
			if v += tail[x]; v < b {
				b = v
			}
		}
		s.dp2[(t-1)*T+base] = b
	}
	s.colTop[cell] = s.dp2[(k-2)*T+base]
}

// prunedRootSearch finds the minimum split cost over all roots of [i,j]
// (i < j) and one argmin. Edge roots cost a single read. For each interior
// root r, dp2(i,r-1,k-1) + dp2(r+1,j,k-1) is a lower bound on its split
// cost — it relaxes the dl+dr ≤ k routing-array constraint to dl,dr ≤ k-1
// — and dp2's monotonicity in t makes the bound admissible. The search
// bounds every interior root (2 reads each: row i of plane k-1 against
// column j of its copy colTop), evaluates the most promising
// one exactly to seed a tight incumbent, then runs the exact O(k) split
// only for roots whose bound beats the incumbent. Worst case (bounds all
// tie, e.g. near-uniform demands) it degrades gracefully to the seed DP's
// full O(len·k) scan; on skewed demands it removes the k factor. It also
// returns how many interior roots it evaluated and skipped. lb is scratch
// of length ≥ j-i+1.
func (s *Solver) prunedRootSearch(i, j int, lb []int64) (int64, int, int64, int64) {
	k, T := s.k, s.T
	row := s.dp2[(k-2)*T+int(s.sc.t.off[i]):][:j-i] // dp2(i, i..j-1, k-1)
	col := s.colTop[s.sc.t.col(i+1, j):][:j-i]      // dp2(i+1..j, j, k-1)
	best := col[0]                                  // r = i: right side [i+1,j] gets k-1 slots
	bestR := i
	if v := row[j-i-1]; v < best { // r = j: left side [i,j-1]
		best, bestR = v, j
	}
	if j-i == 1 {
		return best, bestR, 0, 0
	}
	// Interior root r = i+1+x bounds with dp2(i,r-1) = left[x] and
	// dp2(r+1,j) = right[x].
	left := row[:j-i-1]
	right := col[1:][:len(left)]
	bounds := lb[1:][:len(left)] // lb[r-i]
	minLB, minR := int64(inf), 0
	for x, v := range left {
		v += right[x]
		bounds[x] = v
		if v < minLB {
			minLB, minR = v, i+1+x
		}
	}
	evaluated, skipped := int64(0), int64(0)
	if minLB < best {
		evaluated++
		if v := s.splitCostBeat(i, minR, j, best); v < best {
			best, bestR = v, minR
		}
	} else {
		skipped++
	}
	for r := i + 1; r < j; r++ {
		if r == minR {
			continue // counted in the seeding step above
		}
		if lb[r-i] >= best {
			skipped++
			continue
		}
		evaluated++
		if v := s.splitCostBeat(i, r, j, best); v < best {
			best, bestR = v, r
		}
	}
	return best, bestR, evaluated, skipped
}

// bestRootSplit re-derives the argmin of the 1-tree cost on [i,j] from the
// stored root: the root id and the left/right child counts. Recomputing
// the split on demand keeps the tables at one int64 plane stack plus the
// int32 root row.
func (s *Solver) bestRootSplit(i, j int) (r, dl, dr int) {
	target := s.get2(i, j, 1) - s.sc.W(i, j)
	r = int(s.root[s.sc.t.at(i, j)])
	leftEmpty := r == i
	rightEmpty := r == j
	switch {
	case leftEmpty && rightEmpty:
		if target == 0 {
			return r, 0, 0
		}
	case leftEmpty:
		if s.get2(r+1, j, s.k-1) == target {
			return r, 0, s.minParts(r+1, j, s.k-1)
		}
	case rightEmpty:
		if s.get2(i, r-1, s.k-1) == target {
			return r, s.minParts(i, r-1, s.k-1), 0
		}
	default:
		for dl := 1; dl <= s.k-1; dl++ {
			if s.get2(i, r-1, dl)+s.get2(r+1, j, s.k-dl) == target {
				return r, s.minParts(i, r-1, dl), s.minParts(r+1, j, s.k-dl)
			}
		}
	}
	panic(fmt.Sprintf("statictree: stored root %d does not reproduce the 1-tree cost on [%d,%d]", r, i, j))
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
