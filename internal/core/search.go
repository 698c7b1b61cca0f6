package core

import "fmt"

// SearchFromRoot performs the greedy search-property lookup for id starting
// at the root, exactly as a packet with destination id would be forwarded
// downward. It returns the sequence of visited node ids ending at id, or an
// error if the search property is violated (the packet falls into an empty
// slot).
func (t *Tree) SearchFromRoot(id int) ([]int, error) {
	if id < 1 || id > t.n {
		return nil, fmt.Errorf("core: id %d out of range 1..%d", id, t.n)
	}
	path := make([]int, 0, 8)
	value := int32(t.idValue(id))
	ix := t.root
	for {
		path = append(path, int(ix))
		if int(ix) == id {
			return path, nil
		}
		ch := t.span(ix)[2*t.slotFor(ix, value)]
		if ch == 0 {
			return path, fmt.Errorf("core: search for %d dead-ends at node %d (search property violated)", id, ix)
		}
		ix = ch
	}
}

// RoutePath returns the node ids along the routing path from u to v: the
// reverse-search path up to their lowest common ancestor followed by the
// greedy search path down to v. Its length minus one equals Distance.
//
// The returned slice is backed by a per-tree scratch buffer sized by the
// fused DistanceLCA walk, so steady-state calls allocate nothing; it is
// valid until the next RoutePath call on the same tree, and callers that
// retain paths must copy. Like the rebuild scratch, this makes RoutePath
// non-reentrant per tree (DESIGN.md §3 serve-path scratch ownership).
func (t *Tree) RoutePath(u, v int) []int {
	a, b := t.NodeByID(u), t.NodeByID(v)
	dist, w := t.DistanceLCA(a, b)
	if cap(t.routeBuf) < dist+1 {
		t.routeBuf = make([]int, dist+1)
	}
	path := t.routeBuf[:dist+1]
	i := 0
	for ix := a.ix; ix != w.ix; ix = t.parent[ix] {
		path[i] = int(ix)
		i++
	}
	path[i] = int(w.ix)
	for j, ix := dist, b.ix; ix != w.ix; ix = t.parent[ix] {
		path[j] = int(ix)
		j--
	}
	return path
}

// NextHop returns the neighbor to which a node holding a packet for dst
// forwards it: the parent while the packet still travels up toward the
// lowest common ancestor, then the child whose interval covers dst.
//
// In a routing-based tree (every node id appears in its own routing array)
// this decision is computable from the routing array alone. In the general
// variant a node's interval may be punctured by an ancestor's id, so a
// deployment additionally keeps, per node, the ids of ancestors lying
// inside its interval (at most depth-many, maintained with O(k) work per
// rotation); the decision below is exactly the one that bookkeeping yields.
func (t *Tree) NextHop(at *Node, dst int) (*Node, error) {
	if int(at.ix) == dst {
		return nil, fmt.Errorf("core: node %d already holds the packet for itself", dst)
	}
	if dst < 1 || dst > t.n {
		return nil, fmt.Errorf("core: destination %d out of range 1..%d", dst, t.n)
	}
	w := t.LCA(at, t.NodeByID(dst))
	if at != w {
		return at.Parent(), nil
	}
	ch := t.span(at.ix)[2*t.slotFor(at.ix, int32(t.idValue(dst)))]
	if ch == 0 {
		return nil, fmt.Errorf("core: search property violated at node %d for destination %d", at.ix, dst)
	}
	return &t.nodes[ch], nil
}
