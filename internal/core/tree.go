package core

import (
	"fmt"
	"math"
)

// Tree is a k-ary search tree network on nodes with identifiers 1..n.
//
// Node state is stored index-based in flat structure-of-arrays slices (the
// arena): node id i occupies arena index i, index 0 is the nil sentinel.
// parent[i] is the parent index (0 for the root), and every node owns a
// fixed-stride span of the shared packed rc array holding its child slots
// and routing elements interleaved in in-order:
//
//	rc[(i−1)·(2k−1) : i·(2k−1)] = kid0 thr0 kid1 thr1 … thr(k−2) kid(k−1)
//
// with child indices at even in-span offsets (0 = empty slot) and cut-space
// thresholds at odd offsets. The fixed stride is sound because construction
// pads every routing array to exactly k−1 elements and rotations preserve
// fullness (Validate enforces it); the interleaving is chosen because a
// node's span then IS its in-order expansion, so the d-node rebuild merges
// and re-emits whole fragments with a handful of contiguous block copies.
// The serve hot path — DistanceLCA and the splay rebuilds — walks these
// dense int32 arrays instead of chasing per-node heap objects, and the same
// slices double as the tree's serialization format (see Snapshot).
//
// The zero value is not usable; construct trees with NewBalanced, NewPath,
// NewRandom, Build (from a Spec), FromSnapshot, or Place into an Arena.
type Tree struct {
	k     int
	n     int
	scale int // cut-space scale: id i sits at value i·scale

	root   int32
	parent []int32 // parent[id]; 0 = none; index 0 is rebuild scratch
	rc     []int32 // interleaved child-slot/routing-element spans, 2k−1 per node

	// nodes backs the *Node handles handed out by NodeByID, Root, Parent
	// and Child: nodes[id] is allocated once at construction and never
	// moves, so handle pointers are stable across rotations (identifier
	// permanence).
	nodes []Node

	// Merge kernels, selected once at construction by threshold count
	// (kernel.go): kMerge2/kMerge3 search the d=2/d=3 rebuild merges
	// (2(k−1) and 3(k−1) thresholds) for every block placement. A node's
	// own span is searched by slotBisect; the scalar early-exit scan
	// survives only as the reference oracle (slotScalar).
	kMerge2 slotKernel
	kMerge3 slotKernel

	rotations   int64
	edgeChanges int64
	trackEdges  bool
	blockPolicy BlockPolicy

	// Per-tree rotation scratch space, owned by the rebuilds, preallocated
	// at the d=3 maximum. Serving is strictly sequential under the engine's
	// determinism contract, so a single set of buffers per tree suffices;
	// sharing them across concurrent mutators of the same tree is not
	// supported (see DESIGN.md on serve-path reentrancy).
	scratch []int32 // interleaved in-order expansion of the fragment

	// links holds a tracked rebuild's noted links as (node, parent)
	// pairs, at most 3k+1 of them (noteLinks). It is allocated when
	// tracking is first switched on, so a tracked rebuild allocates
	// nothing.
	links []int32

	// routeBuf backs RoutePath results (grown to the longest path seen,
	// never shrunk); same single-owner, non-reentrant rules as scratch.
	routeBuf []int
}

// span returns node ix's interleaved child/threshold span of the packed
// backing array: 2k−1 entries, child slots at even offsets (0 = empty),
// strictly increasing cut-space thresholds at odd offsets.
func (t *Tree) span(ix int32) []int32 {
	w := 2*t.k - 1
	base := int(ix-1) * w
	return t.rc[base : base+w : base+w]
}

// nodeOrNil maps an arena index to its stable handle, with 0 → nil.
func (t *Tree) nodeOrNil(ix int32) *Node {
	if ix == 0 {
		return nil
	}
	return &t.nodes[ix]
}

// newArena allocates the flat node storage and the stable handle array for
// a tree of n nodes with arity k (all spans zeroed = empty).
func newArena(n, k int) *Tree {
	t := &Tree{
		k:      k,
		n:      n,
		scale:  k,
		parent: make([]int32, n+1),
		rc:     make([]int32, n*(2*k-1)),
		nodes:  make([]Node, n+1),

		scratch: make([]int32, 3*(2*k-1)-2),

		kMerge2: kernelForCount(2 * (k - 1)),
		kMerge3: kernelForCount(3 * (k - 1)),
	}
	for id := 1; id <= n; id++ {
		t.nodes[id] = Node{t: t, ix: int32(id)}
	}
	return t
}

// K returns the arity bound: every node has at most k children and at most
// k−1 routing elements.
func (t *Tree) K() int { return t.k }

// N returns the number of network nodes.
func (t *Tree) N() int { return t.n }

// Root returns the current tree root.
func (t *Tree) Root() *Node { return t.nodeOrNil(t.root) }

// NodeByID returns the node with the given identifier. It panics if id is
// outside 1..n, mirroring slice indexing semantics.
func (t *Tree) NodeByID(id int) *Node {
	if id == 0 {
		return nil
	}
	return &t.nodes[id]
}

// idValue maps an identifier into the scaled cut space in which routing
// elements live: id i sits at value i·k, leaving k−1 usable cut positions
// strictly between consecutive ids.
func (t *Tree) idValue(id int) int { return id * t.scale }

// Scale returns the cut-space scale factor (the arity k); exported for
// tooling that needs to interpret RoutingArray values in id space.
func (t *Tree) Scale() int { return t.scale }

// Rotations returns the number of rotation operations (k-semi-splay or
// k-splay steps) performed since construction or the last ResetCounters.
// Each step costs one unit in the paper's experimental cost model.
func (t *Tree) Rotations() int64 { return t.rotations }

// EdgeChanges returns the cumulative number of physical links added or
// removed by rotations: each rebuild adds the size of the symmetric
// difference of the undirected link sets before and after it. It is only
// maintained when edge tracking is enabled with SetTrackEdges (the raw
// adjustment cost of the paper's model, used by the cost-accounting
// ablation).
func (t *Tree) EdgeChanges() int64 { return t.edgeChanges }

// SetTrackEdges enables or disables per-rotation edge-churn accounting.
// Tracking is off by default: it reads every fragment node's child slots
// twice per rebuild.
func (t *Tree) SetTrackEdges(on bool) {
	t.trackEdges = on
	if on && t.links == nil {
		t.links = make([]int32, 0, 2*(3*t.k+1))
	}
}

// ResetCounters zeroes the rotation and edge-change counters.
func (t *Tree) ResetCounters() {
	t.rotations = 0
	t.edgeChanges = 0
}

// depthIx returns the number of edges between arena index ix and the root.
func (t *Tree) depthIx(ix int32) int {
	d := 0
	for p := t.parent[ix]; p != 0; p = t.parent[p] {
		d++
	}
	return d
}

// Depth returns the number of edges between nd and the root.
func (t *Tree) Depth(nd *Node) int { return t.depthIx(nd.ix) }

// LCA returns the lowest common ancestor of a and b.
func (t *Tree) LCA(a, b *Node) *Node {
	_, w := t.DistanceLCA(a, b)
	return w
}

// Distance returns the length (in edges) of the unique routing path between
// a and b: up from the source to their lowest common ancestor and down to
// the destination.
func (t *Tree) Distance(a, b *Node) int {
	d, _ := t.DistanceLCA(a, b)
	return d
}

// DistanceLCA returns the routing-path length between a and b together with
// their lowest common ancestor, in a single fused traversal: two depth
// walks plus one synchronized climb. The self-adjusting networks need both
// values for every request (the distance is the routing cost, the LCA is
// the splay target). All three walks run over the dense parent[] index
// array — for the tree sizes the experiments serve it stays resident in L1,
// which is what this layout buys on the hot path.
func (t *Tree) DistanceLCA(a, b *Node) (int, *Node) {
	ia, ib := a.ix, b.ix
	if ia == ib {
		return 0, a
	}
	par := t.parent
	da, db := t.depthIx(ia), t.depthIx(ib)
	dist := 0
	for da > db {
		ia = par[ia]
		da--
		dist++
	}
	for db > da {
		ib = par[ib]
		db--
		dist++
	}
	for ia != ib {
		ia = par[ia]
		ib = par[ib]
		dist += 2
	}
	return dist, &t.nodes[ia]
}

// SharedLinks returns how many links t and o have in common, for two
// trees on the same node set. Every link is {x, p(x)} for exactly one
// child x, so one pass over t's parent array finds them: {x, p(x)} is in
// o iff o keeps x under p(x) or hangs p(x) under x. It reads the two
// parent arrays directly, in O(n), and allocates nothing.
func (t *Tree) SharedLinks(o *Tree) int {
	tp, op := t.parent[:t.n+1], o.parent[:t.n+1]
	shared := 0
	for x := 1; x <= t.n; x++ {
		if p := tp[x]; p != 0 && (op[x] == p || op[p] == int32(x)) {
			shared++
		}
	}
	return shared
}

// DistanceID is Distance on node identifiers.
func (t *Tree) DistanceID(u, v int) int {
	return t.Distance(t.NodeByID(u), t.NodeByID(v))
}

// Height returns the maximum node depth in the tree.
func (t *Tree) Height() int {
	h := 0
	var walk func(ix int32, d int)
	walk = func(ix int32, d int) {
		if d > h {
			h = d
		}
		sp := t.span(ix)
		for i := 0; i < len(sp); i += 2 {
			if ch := sp[i]; ch != 0 {
				walk(ch, d+1)
			}
		}
	}
	walk(t.root, 0)
	return h
}

// TotalPairDistanceUniform returns the sum of d(u,v) over all unordered node
// pairs, computed in O(n) via edge potentials: an edge splitting the tree
// into parts of size s and n−s is crossed by s·(n−s) pairs. This is the
// paper's TotalDistance for the (finite) uniform workload.
func (t *Tree) TotalPairDistanceUniform() int64 {
	var total int64
	n := int64(t.n)
	var size func(ix int32) int64
	size = func(ix int32) int64 {
		s := int64(1)
		sp := t.span(ix)
		for i := 0; i < len(sp); i += 2 {
			if ch := sp[i]; ch != 0 {
				s += size(ch)
			}
		}
		if t.parent[ix] != 0 {
			total += s * (n - s)
		}
		return s
	}
	size(t.root)
	return total
}

// AverageDepth returns the mean node depth (useful for shape diagnostics).
func (t *Tree) AverageDepth() float64 {
	var sum, cnt int64
	var walk func(ix int32, d int)
	walk = func(ix int32, d int) {
		sum += int64(d)
		cnt++
		sp := t.span(ix)
		for i := 0; i < len(sp); i += 2 {
			if ch := sp[i]; ch != 0 {
				walk(ch, d+1)
			}
		}
	}
	walk(t.root, 0)
	return float64(sum) / float64(cnt)
}

// CheckIDRange verifies the construction parameters shared by all tree
// constructors: at least one node, arity at least 2, and ids that fit
// the int32 cut space (n·k). Constructors run it before they allocate
// or loop over anything of size k, so an absurd arity is an error, not
// an out-of-memory crash.
func CheckIDRange(n, k int) error {
	if n < 1 {
		return fmt.Errorf("core: need at least one node, got n=%d", n)
	}
	if k < 2 {
		return fmt.Errorf("core: arity must be at least 2, got k=%d", k)
	}
	if n > math.MaxInt32/k {
		return fmt.Errorf("core: n·k = %d·%d overflows the int32 cut space", n, k)
	}
	return nil
}
