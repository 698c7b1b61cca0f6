package statictree

import (
	"fmt"

	"github.com/ksan-net/ksan/internal/core"
)

// OptimalUniform computes an optimal static k-ary search tree for the
// (finite) uniform workload in O(n²·k) time (Theorem 4). It is a one-shot
// wrapper over UniformSolver; callers sweeping arities at a fixed n (the
// Remark 10 grid) should reuse one UniformSolver.
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
// Like Solver, a UniformSolver owns its DP scratch and recycles it across
// Optimal calls (the tables are arity-dependent, so only allocations are
// shared, not values); it is not safe for concurrent use.
type UniformSolver struct {
	n int
	// Per-call state, reused across Optimal calls.
	//
	// tree[s]        = cost of the best single tree on s nodes, including
	//                  W(s) (the traffic crossing the link to its parent).
	// plane(t)[s]    = cost of the best forest of exactly t non-empty trees
	//                  covering s nodes in total, t ∈ 1..k.
	//
	// forest stores the planes one after another (plane-major), so the
	// convolution that fills plane t reads tree forward and plane t-1
	// backward, both contiguous.
	k      int
	tree   []int64
	forest []int64
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

// Optimal runs the uniform DP at arity k and reconstructs an optimal tree.
func (s *UniformSolver) Optimal(k int) (*core.Tree, int64, error) {
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
func (s *UniformSolver) w(length int) int64 {
	return int64(length) * int64(s.n-length)
}

func (s *UniformSolver) run(k int) {
	s.k = k
	if cap(s.tree) < s.n+1 {
		s.tree = make([]int64, s.n+1)
	} else {
		s.tree = s.tree[:s.n+1]
	}
	fsize := (s.n + 1) * k
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
		for t := 1; t <= maxT; t++ {
			if v := s.plane(t)[length-1]; v < best {
				best = v
			}
		}
		s.tree[length] = best + s.w(length)
		// Forests of this length: a first tree on a = x+1 nodes, then t-1
		// trees on the other length-a, read backward from the end of rest.
		s.plane(1)[length] = s.tree[length]
		for t := 2; t <= k && t <= length; t++ {
			first := s.tree[1 : length-t+2]                   // a = 1..length-t+1
			rest := s.plane(t - 1)[t-1 : length][:len(first)] // sizes t-1..length-1
			best := int64(inf)
			for x, v := range first {
				if v += rest[len(rest)-1-x]; v < best {
					best = v
				}
			}
			s.plane(t)[length] = best
		}
	}
}

// childSizes re-derives the child-tree sizes of the best tree on s nodes.
func (s *UniformSolver) childSizes(length int) []int {
	if length == 1 {
		return nil
	}
	target := s.tree[length] - s.w(length)
	maxT := s.k
	if maxT > length-1 {
		maxT = length - 1
	}
	for t := 1; t <= maxT; t++ {
		if s.plane(t)[length-1] == target {
			return s.forestSizes(length-1, t)
		}
	}
	panic("statictree: uniform child sizes unreachable")
}

func (s *UniformSolver) forestSizes(length, t int) []int {
	if t == 1 {
		return []int{length}
	}
	want := s.plane(t)[length]
	for a := 1; a <= length-t+1; a++ {
		if s.tree[a]+s.plane(t - 1)[length-a] == want {
			return append([]int{a}, s.forestSizes(length-a, t-1)...)
		}
	}
	panic("statictree: uniform forest sizes unreachable")
}

// treeSpec lays the optimal shape onto the id interval [lo,hi]: the root id
// sits right after the first child's interval, making the tree
// routing-based (any in-order placement yields the same uniform cost).
func (s *UniformSolver) treeSpec(lo, hi int) *core.Spec {
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
