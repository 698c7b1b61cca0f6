package core

import "fmt"

// SplayUntilParent rotates x upward with k-splay (double) and k-semi-splay
// (single) steps until x's parent is stop. With stop == nil, x becomes the
// tree root. stop must be a proper ancestor of x (or x's current parent);
// the method panics otherwise, as that is a programming error in a caller.
//
// This is the movement primitive of the online networks: k-ary SplayNet
// splays a request's source to the lowest common ancestor's position and
// the destination to a child of the source; the centroid (k+1)-SplayNet
// splays endpoints to their subtree roots.
func (t *Tree) SplayUntilParent(x *Node, stop *Node) {
	xi := x.ix
	var si int32
	if stop != nil {
		si = stop.ix
	}
	par := t.parent // rebuilds mutate entries, never the slice itself
	c := t.startSlot(xi, si)
	for par[xi] != si {
		p := par[xi]
		if p == 0 {
			panic(fmt.Sprintf("core: splay target (parent %v) is not an ancestor of node %d", stopLabel(si), xi))
		}
		if g := par[p]; g == si {
			c = t.rebuild2(p, xi, c)
		} else {
			c = t.rebuild3(g, p, xi, c)
		}
	}
}

// SemiSplayUntilParent is SplayUntilParent restricted to single
// (k-semi-splay) steps; it exists for the rotation-repertoire ablation,
// which measures the value of the double k-splay step.
func (t *Tree) SemiSplayUntilParent(x *Node, stop *Node) {
	xi := x.ix
	var si int32
	if stop != nil {
		si = stop.ix
	}
	par := t.parent
	c := t.startSlot(xi, si)
	for par[xi] != si {
		p := par[xi]
		if p == 0 {
			panic(fmt.Sprintf("core: splay target (parent %v) is not an ancestor of node %d", stopLabel(si), xi))
		}
		c = t.rebuild2(p, xi, c)
	}
}

// startSlot returns the slot x occupies in its parent when a splay loop
// toward stop si has work to do, and 0 otherwise. The loops look the slot
// up only here and carry it from step to step: each rebuild returns x's
// slot in its new parent.
func (t *Tree) startSlot(xi, si int32) int {
	if p := t.parent[xi]; p != 0 && p != si {
		return slotBisect(t.span(p), int32(t.idValue(int(xi))))
	}
	return 0
}

func stopLabel(si int32) interface{} {
	if si == 0 {
		return "<root>"
	}
	return si
}
