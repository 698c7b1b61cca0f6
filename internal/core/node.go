package core

// Node is a handle to a single network node participating in a k-ary search
// tree topology. The identifier is permanent; the routing array (thresholds)
// and adjacency (parent/children) change under rotations.
//
// Since PR 6 the node state itself lives in flat structure-of-arrays slices
// owned by the Tree (see tree.go); a Node is an (owner, index) handle into
// that arena. Handles are allocated once per tree in a stable backing array,
// so the *Node returned by NodeByID is pointer-identical across rotations —
// exactly the identifier-permanence contract the pointer-linked
// representation provided.
//
// Invariant: every node of a built tree carries exactly k−1 routing elements
// and k child slots (construction pads routing arrays; rotations preserve
// fullness). Child slots may hold nil when the corresponding key interval
// contains no ids.
type Node struct {
	t  *Tree
	ix int32 // node index in the arena == the permanent identifier
}

// ID returns the node's permanent identifier.
func (nd *Node) ID() int { return int(nd.ix) }

// Parent returns the node's current parent, or nil for the tree root.
func (nd *Node) Parent() *Node { return nd.t.nodeOrNil(nd.t.parent[nd.ix]) }

// RoutingArray returns a copy of the node's current routing elements in
// increasing order. The slice has exactly k−1 entries.
func (nd *Node) RoutingArray() []int {
	sp := nd.t.span(nd.ix)
	out := make([]int, nd.t.k-1)
	for i := range out {
		out[i] = int(sp[2*i+1])
	}
	return out
}

// NumSlots returns the number of child slots (len(routing array)+1).
func (nd *Node) NumSlots() int { return nd.t.k }

// Child returns the child in slot i, which may be nil.
func (nd *Node) Child(i int) *Node { return nd.t.nodeOrNil(nd.t.span(nd.ix)[2*i]) }

// ChildCount returns the number of non-nil children.
func (nd *Node) ChildCount() int {
	c := 0
	sp := nd.t.span(nd.ix)
	for i := 0; i < len(sp); i += 2 {
		if sp[i] != 0 {
			c++
		}
	}
	return c
}

// IsLeaf reports whether the node currently has no children.
func (nd *Node) IsLeaf() bool { return nd.ChildCount() == 0 }

// Degree returns the node's degree in the underlying (undirected) network
// topology: its child count plus one for the parent link, if any.
func (nd *Node) Degree() int {
	d := nd.ChildCount()
	if nd.t.parent[nd.ix] != 0 {
		d++
	}
	return d
}

// slotFor returns the child slot index that the search property assigns to
// the target cut-space value at node ix: the number of thresholds strictly
// less than the value, so that it falls in the interval (t(slot-1), t(slot)].
// It is the branchless bisection every rebuild slot lookup uses
// (slotBisect, kernel.go).
func (t *Tree) slotFor(ix int32, value int32) int {
	return slotBisect(t.span(ix), value)
}
