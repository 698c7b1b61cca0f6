package statictree

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/ksan-net/ksan/internal/core"
)

// This file keeps both DP fills as they were before the tables got their
// contiguous inner loops, as references for layout_test.go, which pins
// the shipped fills to them cell for cell:
//
//   - rowMajorSolver stores every plane t = 1..k of dp2 row-major
//     (plane k included, though nothing reads it) and peels the first
//     tree off a forest, so its forest loop and its root bound both read
//     down a column of a row-major triangle. It keeps the pruned root
//     search and the root table that the Solver's hole planes replaced:
//     TestSolverFillMatchesRowMajor and FuzzSolver compare every root
//     the Solver re-derives with that table. With exhaustive set it
//     evaluates every root of every segment with splitCost, the seed
//     DP's root scan: the reference TestSolverMatchesExhaustive and
//     FuzzSolver compare the Solver's cost with;
//   - interleavedUniformSolver interleaves its forest table as
//     forest[s*(k+1)+t], so the convolution strides k+1 words. It also
//     tries every first-tree size a = 1..L−t+1 and builds its tree
//     through a Spec and core.Build, so it is the reference of the
//     shipped fill's ⌊L/t⌋ bound and arena writer too.
//
// Apart from the type names and the //go:norace lines the code below is
// the former dp.go and uniform.go verbatim. It shares segmentCosts, inf
// and spawnWorkThreshold with the package. The tests run both references
// on one goroutine, where the race detector has nothing to find, so their
// fills are left uninstrumented: that keeps the race job's cost of the
// layout tests to the fills they check.

type rowMajorSolver struct {
	n          int
	sc         *segmentCosts
	exhaustive bool
	workers    int

	// Per-call state, reused across Optimal calls (grown, never cleared:
	// every fill writes each cell of its segment before anything reads it).
	//
	// dp2[(t-1)*T + tri(i,j)] = minimal cost of partitioning segment [i,j]
	// into AT MOST t routing-based k-ary search trees (the children of
	// some node), t ∈ 1..k, where the cost of a tree on [a,b] includes
	// W[a,b], the traffic crossing the link to its parent. The exact-t
	// table of the seed DP is redundant — the recurrence closes over the
	// prefix-minimum form directly (see fillSegment) — so dropping it
	// halves table memory on top of the triangular halving.
	//
	// The layout is plane-major in t: the hot inner loops walk segments at
	// a fixed t, so each plane is a contiguous triangular matrix.
	k, T int // current arity; T = n(n+1)/2 plane size
	dp2  []int64
	root []int32 // root[tri(i,j)] = an argmin root of the 1-tree cost on [i,j]
	lb   []int64 // inline-path scratch for prunedRootSearch

	// Pruning diagnostics: exact O(k) split evaluations vs roots excluded
	// by the admissible bound, accumulated per Optimal call.
	rootsEvaluated atomic.Int64
	rootsSkipped   atomic.Int64
}

// Optimal runs the DP at arity k and reconstructs an optimal tree. The
// cost is deterministic and independent of worker count and pruning mode
// (pruning is exact; the differential tests enforce bit-identity anyway);
// the returned tree is one cost-minimal witness.
func (s *rowMajorSolver) Optimal(k int) (*core.Tree, int64, error) {
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
func (s *rowMajorSolver) prepare(k int) {
	s.k = k
	s.T = s.sc.t.size()
	size := s.T * k
	if cap(s.dp2) < size {
		s.dp2 = make([]int64, size)
	} else {
		s.dp2 = s.dp2[:size]
	}
	if s.root == nil {
		s.root = make([]int32, s.T)
		s.lb = make([]int64, s.n+1)
	}
	s.rootsEvaluated.Store(0)
	s.rootsSkipped.Store(0)
}

// get2 reads dp2[i][j][t] (min over up to t parts); empty segments are
// free.
//
//go:norace
func (s *rowMajorSolver) get2(i, j, t int) int64 {
	if i > j {
		return 0
	}
	if t < 1 {
		return inf
	}
	return s.dp2[(t-1)*s.T+s.sc.t.at(i, j)]
}

// splitCost is the cheapest way to hang the children of a node with id r
// whose segment is [i,j]: the left children cover [i,r-1], the right
// children cover [r+1,j], and the routing array has room for k children
// when both sides are used, or k-1 children plus the node's own id
// threshold when one side is empty (routing-based trees keep r in the
// routing array).
//
//go:norace
func (s *rowMajorSolver) splitCost(i, r, j int) int64 {
	k, T := s.k, s.T
	top := (k - 2) * T
	switch {
	case r == i && r == j:
		return 0
	case r == i:
		return s.dp2[top+s.sc.t.at(r+1, j)]
	case r == j:
		return s.dp2[top+s.sc.t.at(i, r-1)]
	default:
		li := s.sc.t.at(i, r-1)
		ri := s.sc.t.at(r+1, j)
		best := int64(inf)
		for dl := 1; dl <= k-1; dl++ {
			if v := s.dp2[(dl-1)*T+li] + s.dp2[(k-dl-1)*T+ri]; v < best {
				best = v
			}
		}
		return best
	}
}

// splitCostBeat is splitCost for an interior root, with an early exit: as
// dl grows, the right side is allowed fewer parts, so its dp2 term only
// ever grows; once even the left side's unconstrained minimum (lmin, its
// k-1-part dp2) plus that right term reaches beat, no later dl can beat
// the incumbent and the scan stops. The returned value is the exact
// minimum whenever it is below beat (values ≥ beat may be partial, which
// is sound: callers only use them for `< beat` comparisons).
//
//go:norace
func (s *rowMajorSolver) splitCostBeat(i, r, j int, beat int64) int64 {
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

// run fills the table diagonal by diagonal (all segments of one length
// depend only on shorter ones). Within a diagonal, workers pull the next
// unfilled segment from a shared atomic counter, so a handful of
// expensive segments — pruning makes per-segment cost wildly skewed —
// never idles the rest of the pool the way the previous fixed-chunk
// fan-out did. Tiny diagonals run inline: the fan-out costs more than it
// buys below spawnWorkThreshold estimated operations.
func (s *rowMajorSolver) run() {
	var scratch [][]int64 // per-worker lb buffers, reused across diagonals
	for length := 1; length <= s.n; length++ {
		lo, hi := 1, s.n-length+1
		segs := hi - lo + 1
		if s.workers <= 1 || segs == 1 || segs*length*s.k < spawnWorkThreshold {
			for i := lo; i <= hi; i++ {
				s.fillSegment(i, i+length-1, s.lb)
			}
			continue
		}
		if scratch == nil {
			scratch = make([][]int64, s.workers)
			for w := range scratch {
				scratch[w] = make([]int64, s.n+1)
			}
		}
		nw := s.workers
		if nw > segs {
			nw = segs
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(nw)
		for w := 0; w < nw; w++ {
			lb := scratch[w]
			go func() {
				defer wg.Done()
				for {
					i := lo + int(next.Add(1)) - 1
					if i > hi {
						return
					}
					s.fillSegment(i, i+length-1, lb)
				}
			}()
		}
		wg.Wait()
	}
}

// fillSegment computes dp2[i][j][·] and root[i][j]; all shorter segments
// are already filled. lb is caller-owned scratch of length ≥ n+1.
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
// t ≥ 2 peels the first child tree off the segment, directly in
// prefix-minimum form: a forest of ≤ t trees is either one tree (the
// t-1 entry already covers it) or a first tree [i,l] plus a forest of
// ≤ t-1 trees on [l+1,j].
//
//go:norace
func (s *rowMajorSolver) fillSegment(i, j int, lb []int64) {
	k, T := s.k, s.T
	offs := s.sc.t.off
	base := int(offs[i]) + j - i
	var best int64
	var bestR int
	switch {
	case i == j:
		best, bestR = 0, i
	case s.exhaustive:
		best, bestR = inf, i
		for r := i; r <= j; r++ {
			if v := s.splitCost(i, r, j); v < best {
				best, bestR = v, r
			}
		}
	default:
		best, bestR = s.prunedRootSearch(i, j, lb)
	}
	s.root[base] = int32(bestR)
	s.dp2[base] = best + s.sc.w[base]
	n := s.n
	lrow := s.dp2[int(offs[i]) : int(offs[i])+j-i+1] // dp2(i, ·, 1): contiguous
	for t := 2; t <= k; t++ {
		prevPlane := s.dp2[(t-2)*T:]
		b := prevPlane[base] // a forest of ≤ t-1 trees is also one of ≤ t
		ri := int(offs[i+1]) + j - i - 1
		// ri tracks tri(l+1, j): row l+2 starts n-l long, so the index
		// advances by n-l-1 when l steps.
		for l := i; l < j; l++ {
			if v := lrow[l-i] + prevPlane[ri]; v < b {
				b = v
			}
			ri += n - l - 1
		}
		s.dp2[(t-1)*T+base] = b
	}
}

// prunedRootSearch finds the minimum split cost over all roots of [i,j]
// (i < j) and one argmin. Edge roots cost a single read. For each interior
// root r, dp2(i,r-1,k-1) + dp2(r+1,j,k-1) is a lower bound on its split
// cost — it relaxes the dl+dr ≤ k routing-array constraint to dl,dr ≤ k-1
// — and dp2's monotonicity in t makes the bound admissible. The search
// bounds every interior root (2 reads each), evaluates the most promising
// one exactly to seed a tight incumbent, then runs the exact O(k) split
// only for roots whose bound beats the incumbent. Worst case (bounds all
// tie, e.g. near-uniform demands) it degrades gracefully to the seed DP's
// full O(len·k) scan; on skewed demands it removes the k factor.
//
//go:norace
func (s *rowMajorSolver) prunedRootSearch(i, j int, lb []int64) (int64, int) {
	k, T := s.k, s.T
	offs := s.sc.t.off
	top := s.dp2[(k-2)*T:]
	best := top[int(offs[i+1])+j-i-1] // r = i: right side [i+1,j] gets k-1 slots
	bestR := i
	if v := top[int(offs[i])+j-1-i]; v < best { // r = j: left side [i,j-1]
		best, bestR = v, j
	}
	if j-i == 1 {
		return best, bestR
	}
	minLB, minR := int64(inf), 0
	li := int(offs[i]) - i // + (r-1) = tri(i, r-1)
	for r := i + 1; r < j; r++ {
		v := top[li+r-1] + top[int(offs[r+1])+j-r-1]
		lb[r-i] = v
		if v < minLB {
			minLB, minR = v, r
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
	s.rootsEvaluated.Add(evaluated)
	s.rootsSkipped.Add(skipped)
	return best, bestR
}

// bestRootSplit re-derives the argmin of the 1-tree cost on [i,j] from the
// stored root: the root id and the left/right child counts. Recomputing
// the split on demand keeps the tables at one int64 plane stack plus the
// int32 root row.
func (s *rowMajorSolver) bestRootSplit(i, j int) (r, dl, dr int) {
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
func (s *rowMajorSolver) minParts(i, j, maxT int) int {
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
func (s *rowMajorSolver) forestParts(i, j, t int) [][2]int {
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
func (s *rowMajorSolver) treeSpec(i, j int) *core.Spec {
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

type interleavedUniformSolver struct {
	n int
	// Per-call state, reused across Optimal calls.
	//
	// tree[s]            = cost of the best single tree on s nodes,
	//                      including W(s) (the traffic crossing the link
	//                      to its parent).
	// forest[s*(k+1)+t]  = cost of the best forest of exactly t non-empty
	//                      trees covering s nodes in total, t ∈ 1..k.
	k      int
	tree   []int64
	forest []int64
}

// Optimal runs the uniform DP at arity k and reconstructs an optimal tree.
func (s *interleavedUniformSolver) Optimal(k int) (*core.Tree, int64, error) {
	if err := core.CheckIDRange(s.n, k); err != nil {
		return nil, 0, fmt.Errorf("statictree: %w", err)
	}
	s.run(k)
	spec := s.treeSpec(1, s.n)
	tree, err := core.Build(k, spec)
	if err != nil {
		return nil, 0, fmt.Errorf("statictree: uniform DP produced an invalid tree: %w", err)
	}
	return tree, s.tree[s.n], nil
}

// w is the uniform-workload boundary traffic of any segment of length s:
// each inside node exchanges one request with each outside node.
func (s *interleavedUniformSolver) w(length int) int64 {
	return int64(length) * int64(s.n-length)
}

//go:norace
func (s *interleavedUniformSolver) run(k int) {
	s.k = k
	if cap(s.tree) < s.n+1 {
		s.tree = make([]int64, s.n+1)
	} else {
		s.tree = s.tree[:s.n+1]
	}
	fsize := (s.n + 1) * (k + 1)
	if cap(s.forest) < fsize {
		s.forest = make([]int64, fsize)
	} else {
		s.forest = s.forest[:fsize]
	}
	for i := range s.forest {
		s.forest[i] = inf
	}
	for length := 1; length <= s.n; length++ {
		// Best single tree: root plus up to k child trees over length-1
		// nodes.
		best := int64(inf)
		if length == 1 {
			best = 0
		}
		maxT := k
		if maxT > length-1 {
			maxT = length - 1
		}
		prev := s.forest[(length-1)*(k+1):]
		for t := 1; t <= maxT; t++ {
			if v := prev[t]; v < best {
				best = v
			}
		}
		s.tree[length] = best + s.w(length)
		// Forests of this length.
		row := s.forest[length*(k+1):]
		row[1] = s.tree[length]
		for t := 2; t <= k && t <= length; t++ {
			best := int64(inf)
			for a := 1; a <= length-t+1; a++ {
				v := s.tree[a] + s.forest[(length-a)*(k+1)+t-1]
				if v < best {
					best = v
				}
			}
			row[t] = best
		}
	}
}

// childSizes re-derives the child-tree sizes of the best tree on s nodes.
func (s *interleavedUniformSolver) childSizes(length int) []int {
	if length == 1 {
		return nil
	}
	target := s.tree[length] - s.w(length)
	maxT := s.k
	if maxT > length-1 {
		maxT = length - 1
	}
	for t := 1; t <= maxT; t++ {
		if s.forest[(length-1)*(s.k+1)+t] == target {
			return s.forestSizes(length-1, t)
		}
	}
	panic("statictree: uniform child sizes unreachable")
}

func (s *interleavedUniformSolver) forestSizes(length, t int) []int {
	if t == 1 {
		return []int{length}
	}
	want := s.forest[length*(s.k+1)+t]
	for a := 1; a <= length-t+1; a++ {
		if s.tree[a]+s.forest[(length-a)*(s.k+1)+t-1] == want {
			return append([]int{a}, s.forestSizes(length-a, t-1)...)
		}
	}
	panic("statictree: uniform forest sizes unreachable")
}

// treeSpec lays the optimal shape onto the id interval [lo,hi]: the root id
// sits right after the first child's interval, making the tree
// routing-based (any in-order placement yields the same uniform cost).
func (s *interleavedUniformSolver) treeSpec(lo, hi int) *core.Spec {
	length := hi - lo + 1
	if length == 1 {
		return &core.Spec{ID: lo}
	}
	sizes := s.childSizes(length)
	id := lo + sizes[0]
	spec := &core.Spec{ID: id}
	spec.Thresholds = append(spec.Thresholds, id)
	spec.Children = append(spec.Children, s.treeSpec(lo, id-1))
	slotLo := id + 1
	for i := 1; i < len(sizes); i++ {
		end := slotLo + sizes[i] - 1
		spec.Children = append(spec.Children, s.treeSpec(slotLo, end))
		if i < len(sizes)-1 {
			spec.Thresholds = append(spec.Thresholds, end)
		}
		slotLo = end + 1
	}
	if len(sizes) == 1 {
		spec.Children = append(spec.Children, nil) // slot above the root id
	}
	return spec
}
