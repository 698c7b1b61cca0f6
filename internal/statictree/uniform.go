package statictree

import (
	"fmt"

	"github.com/ksan-net/ksan/internal/core"
)

// OptimalUniform computes an optimal static k-ary search tree for the
// (finite) uniform workload in O(n²·log k) time, which tightens the
// O(n²·k) of Theorem 4 (see UniformSolver). It is a one-shot wrapper over
// UniformSolver; callers sweeping arities at a fixed n (the Remark 10
// grid) should reuse one UniformSolver.
func OptimalUniform(n, k int) (*core.Tree, int64, error) {
	s, err := NewUniformSolver(n)
	if err != nil {
		return nil, 0, err
	}
	return s.Optimal(k)
}

// UniformSolver answers uniform-workload Optimal(k) queries for a fixed
// node count n: because both the demand restricted to a segment and the
// boundary traffic W depend only on the segment's length (Lemmas 18/19),
// the dynamic program collapses to one dimension — it optimizes over tree
// shapes, and the search property is imposed afterwards by an in-order id
// assignment. The returned cost is TotalDistance(D_uniform, T) =
// Σ_{u<v} d_T(u,v).
//
// The best forest of t trees on L nodes is a first tree plus the best
// forest of t−1 trees on the rest. A forest's cost does not depend on the
// order of its trees, so some optimal forest puts its smallest tree first,
// and that tree has at most ⌊L/t⌋ nodes: the search over the first tree's
// size stops there. That is Σ_{t=2..k} L/t ≈ L·(H_k − 1) steps per length
// instead of (k−1)·L, and O(n²·log k) in all.
//
// Like Solver, a UniformSolver owns its DP scratch and recycles it across
// Optimal calls (the tables are arity-dependent, so only allocations are
// shared, not values); it is not safe for concurrent use.
type UniformSolver struct {
	n int
	// Per-call state, reused across Optimal calls.
	//
	// tree[s]        = cost of the best single tree on s nodes, including
	//                  W(s) (the traffic crossing the link to its parent).
	// rtree[n+1−s]   = tree[s], reversed so that the convolution reads it
	//                  forward, like plane t−1.
	// plane(t)[s]    = cost of the best forest of exactly t non-empty trees
	//                  covering s nodes in total, t ∈ 1..k.
	//
	// forest stores the planes one after another (plane-major), so each
	// convolution is one contiguous min-plus row of each operand.
	k      int
	tree   []int64
	rtree  []int64
	forest []int64
	ths    []int // the writer's routing elements for one node
}

// plane returns the forest costs of exactly t trees, indexed by size.
func (s *UniformSolver) plane(t int) []int64 {
	return s.forest[(t-1)*(s.n+1) : t*(s.n+1)]
}

// NewUniformSolver validates n and prepares a solver for the uniform
// workload on nodes 1..n.
func NewUniformSolver(n int) (*UniformSolver, error) {
	if n < 1 {
		return nil, fmt.Errorf("statictree: need at least one node")
	}
	return &UniformSolver{n: n}, nil
}

// Optimal runs the uniform DP at arity k and writes an optimal tree
// into a new arena.
func (s *UniformSolver) Optimal(k int) (*core.Tree, int64, error) {
	t, root, err := core.Arena(nil, s.n, k)
	if err != nil {
		return nil, 0, fmt.Errorf("statictree: %w", err)
	}
	s.run(k)
	s.ths = resize(s.ths, k-1)
	s.write(t, root, 1, s.n)
	return t, s.tree[s.n], nil
}

// w is the uniform-workload boundary traffic of any segment of length s:
// each inside node exchanges one request with each outside node.
func (s *UniformSolver) w(length int) int64 {
	return int64(length) * int64(s.n-length)
}

func (s *UniformSolver) run(k int) {
	s.k = k
	s.tree = resize(s.tree, s.n+1)
	s.rtree = resize(s.rtree, s.n+1)
	s.forest = resize(s.forest, (s.n+1)*k)
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
		for t := 1; t <= min(k, length-1); t++ {
			best = min(best, s.plane(t)[length-1])
		}
		s.tree[length] = best + s.w(length)
		s.rtree[s.n+1-length] = s.tree[length]
		// Forests of this length: a first tree on a ≤ length/t nodes
		// (rtree[n+1−a]) and t−1 trees on the other length−a.
		s.plane(1)[length] = s.tree[length]
		for t := 2; t <= min(k, length); t++ {
			m := length / t
			s.plane(t)[length] = minPlus(s.rtree[s.n+1-m:], s.plane(t - 1)[length-m:length])
		}
	}
}

// minPlus returns the least x[i] + y[i] over the indices of y; x must be
// at least as long. Four accumulators carry independent minima, so
// consecutive steps do not wait for each other.
func minPlus(x, y []int64) int64 {
	x = x[:len(y)]
	m0, m1, m2, m3 := int64(inf), int64(inf), int64(inf), int64(inf)
	for len(y) >= 4 && len(x) >= 4 {
		m0 = min(m0, x[0]+y[0])
		m1 = min(m1, x[1]+y[1])
		m2 = min(m2, x[2]+y[2])
		m3 = min(m3, x[3]+y[3])
		x, y = x[4:], y[4:]
	}
	for i, v := range y {
		m0 = min(m0, x[i]+v)
	}
	return min(m0, m1, m2, m3)
}

// parts re-derives how many child trees the best tree on length ≥ 2
// nodes has: the fewest whose best forest reaches its cost.
func (s *UniformSolver) parts(length int) int {
	target := s.tree[length] - s.w(length)
	for t := 1; t <= min(s.k, length-1); t++ {
		if s.plane(t)[length-1] == target {
			return t
		}
	}
	panic("statictree: uniform child count unreachable")
}

// firstSize re-derives the size of the first tree of the best forest of
// t trees on length nodes: the smallest a that reaches its cost. The
// smallest tree of some best forest has at most length/t nodes, so the
// first match is never above that.
func (s *UniformSolver) firstSize(length, t int) int {
	if t == 1 {
		return length
	}
	want, rest := s.plane(t)[length], s.plane(t-1)
	for a := 1; a <= length/t; a++ {
		if s.tree[a]+rest[length-a] == want {
			return a
		}
	}
	panic("statictree: uniform forest sizes unreachable")
}

// write places the optimal tree on the ids lo..hi into slot at: the root
// id sits right after the first child's ids, making the tree
// routing-based (any in-order placement yields the same uniform cost).
// Its routing elements are the root id and the last id of every later
// child but the last. The node's routing elements fill s.ths, which its
// subtrees reuse, so the children's sizes are re-derived for the
// recursion.
func (s *UniformSolver) write(t *core.Tree, at core.Slot, lo, hi int) {
	if lo == hi {
		t.Place(at, lo, nil)
		return
	}
	parts := s.parts(hi - lo + 1)
	id := lo + s.firstSize(hi-lo, parts)
	ths := append(s.ths[:0], id)
	for end, p := id, parts-1; p > 1; p-- {
		end += s.firstSize(hi-end, p)
		ths = append(ths, end)
	}
	at = t.Place(at, id, ths)
	s.write(t, at, lo, id-1)
	for start, c := id+1, 1; c < parts; c++ {
		end := start + s.firstSize(hi-start+1, parts-c) - 1
		s.write(t, at.Child(c), start, end)
		start = end + 1
	}
}
