package statictree

import (
	"fmt"

	"github.com/ksan-net/ksan/internal/core"
)

// Centroid builds the centroid k-ary search tree of Section 3.2 in O(n):
// a (k+1)-degree centroid tree — a center node with k+1 weakly-complete
// k-ary subtrees, all levels of the whole tree full except possibly the
// last, whose leaves are packed to the left — re-rooted at a leaf, with
// identifiers assigned in-order so the search property holds (Theorem 8,
// Remark 7). For the uniform workload its total distance is within O(n²)
// of the optimal tree (Theorem 6), and the paper observes it is exactly
// optimal for n < 10³, k ≤ 10 (Remark 10) — property tests check that
// against OptimalUniform.
func Centroid(n, k int) (*core.Tree, error) {
	if err := core.CheckIDRange(n, k); err != nil {
		return nil, fmt.Errorf("statictree: %w", err)
	}
	if n <= 2 {
		return core.NewBalanced(n, k)
	}
	shape := centroidShape(n, k)
	leaf := deepestLeaf(shape, nil)
	rooted := reroot(leaf)
	spec, end := inorderSpec(rooted, 1, k)
	if end != n {
		return nil, fmt.Errorf("statictree: centroid id assignment covered %d of %d ids", end, n)
	}
	t, err := core.Build(k, spec)
	if err != nil {
		return nil, fmt.Errorf("statictree: centroid construction invalid: %w", err)
	}
	return t, nil
}

// CentroidSubtreeSizes returns the sizes of the k+1 subtrees around the
// centroid for an n-node centroid tree (exported for tests and for the
// online (k+1)-SplayNet, which reuses the same proportions).
func CentroidSubtreeSizes(n, k int) []int {
	sizes := make([]int, k+1)
	rem := n - 1
	levelCap := 1 // per-subtree capacity of the current level: k^(ℓ-1)
	for rem > 0 {
		take := rem
		if take > (k+1)*levelCap {
			take = (k + 1) * levelCap
		}
		rem -= take
		// Pack this level's nodes into the leftmost subtrees.
		for i := 0; i <= k && take > 0; i++ {
			p := take
			if p > levelCap {
				p = levelCap
			}
			sizes[i] += p
			take -= p
		}
		levelCap *= k
	}
	return sizes
}

// shapeNode is an unlabeled rooted tree used while assembling the centroid
// structure before ids exist.
type shapeNode struct {
	parent   *shapeNode
	children []*shapeNode
}

// centroidShape builds the center-rooted (k+1)-degree centroid tree shape.
func centroidShape(n, k int) *shapeNode {
	center := &shapeNode{}
	for _, size := range CentroidSubtreeSizes(n, k) {
		if size == 0 {
			continue
		}
		center.children = append(center.children, weaklyCompleteShape(size, k, center))
	}
	return center
}

// weaklyCompleteShape builds a weakly-complete k-ary tree shape on c nodes
// with the last level packed left.
func weaklyCompleteShape(c, k int, parent *shapeNode) *shapeNode {
	nd := &shapeNode{parent: parent}
	if c == 1 {
		return nd
	}
	for _, s := range core.WeaklyCompleteSizes(c-1, k) {
		if s == 0 {
			continue
		}
		nd.children = append(nd.children, weaklyCompleteShape(s, k, nd))
	}
	return nd
}

// deepestLeaf returns a leaf of maximum depth (a last-level leaf when the
// last level is partial — Definition 5 roots the tree "by a leaf").
func deepestLeaf(nd *shapeNode, best *shapeNode) *shapeNode {
	depth := func(x *shapeNode) int {
		d := 0
		for x.parent != nil {
			x = x.parent
			d++
		}
		return d
	}
	if len(nd.children) == 0 {
		if best == nil || depth(nd) > depth(best) {
			best = nd
		}
		return best
	}
	for _, ch := range nd.children {
		best = deepestLeaf(ch, best)
	}
	return best
}

// reroot turns the undirected tree into one rooted at leaf: parents along
// the path from leaf to the old root flip into children.
func reroot(leaf *shapeNode) *shapeNode {
	var prev *shapeNode
	cur := leaf
	for cur != nil {
		next := cur.parent
		if prev != nil {
			// Remove prev from cur's children; prev adopted cur already.
			kids := cur.children[:0]
			for _, ch := range cur.children {
				if ch != prev {
					kids = append(kids, ch)
				}
			}
			cur.children = kids
		}
		if next != nil {
			cur.children = append(cur.children, next)
		}
		cur.parent = prev
		prev = cur
		cur = next
	}
	return leaf
}

// inorderSpec assigns ids lo.. to the rooted shape in-order (the node's own
// id right after its first child's interval) and emits the matching
// routing-based Spec. It returns the spec and the last id used.
func inorderSpec(nd *shapeNode, lo int, k int) (*core.Spec, int) {
	if len(nd.children) == 0 {
		return &core.Spec{ID: lo}, lo
	}
	spec := &core.Spec{}
	first, end := inorderSpec(nd.children[0], lo, k)
	spec.ID = end + 1
	spec.Thresholds = append(spec.Thresholds, spec.ID)
	spec.Children = append(spec.Children, first)
	pos := spec.ID + 1
	for i := 1; i < len(nd.children); i++ {
		ch, chEnd := inorderSpec(nd.children[i], pos, k)
		spec.Children = append(spec.Children, ch)
		if i < len(nd.children)-1 {
			spec.Thresholds = append(spec.Thresholds, chEnd)
		}
		pos = chEnd + 1
		end = chEnd
	}
	if len(nd.children) == 1 {
		spec.Children = append(spec.Children, nil)
		end = spec.ID
	}
	return spec, maxInt(end, spec.ID)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
