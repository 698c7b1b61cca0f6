package core

import "fmt"

// A Slot is where Place writes a node: the root slot of an arena that
// Arena readied, or a child slot of a node that Place wrote, numbered as
// a Spec numbers its node's Children (the pad cuts Place inserts carve
// slots of their own, which no construction ever fills and none counts).
//
// A Slot has four fields in 28 bytes, few enough for the compiler to
// keep it in registers: a larger one is copied through memory at every
// call, and reading those copies back stalls store forwarding, which
// cost a weight-balanced build about a third of its time.
type Slot struct {
	parent int32    // the node whose child slot this is; 0 for the root slot
	c      int32    // spec child slot of parent
	pads   padRun   // where parent's pad cuts sit
	iv     interval // parent's cut-space interval; the root slot's own
}

// padRun says that a node's pad cuts sit at its routing positions
// j..j+n−1.
type padRun struct{ j, n int32 }

// interval is a cut-space interval (lo, hi]; hiElem reports that hi is
// an ancestor's routing element rather than the top cut n·k.
type interval struct {
	lo, hi int32
	hiElem bool
}

// Child returns spec child slot c of the node whose Place returned s.
func (s Slot) Child(c int) Slot {
	s.c = int32(c)
	return s
}

// Arena readies an arena for a construction that writes its nodes
// straight in, top down, with Place: dst reset to a new tree's state
// (links, spans, counters, edge tracking and block policy), or a new
// arena when dst is nil. A non-nil dst must hold n nodes of arity k. It
// returns the tree and its root slot.
//
// Place checks nothing, so the construction must be correct by itself:
// it places every id 1..n exactly once, a parent before its children,
// each node with its id and its thresholds inside its slot's interval.
// Build is the checked path; each construction on Arena is pinned by an
// equivalence test against Build of the Spec it replaced.
func Arena(dst *Tree, n, k int) (*Tree, Slot, error) {
	if err := CheckIDRange(n, k); err != nil {
		return nil, Slot{}, err
	}
	t := dst
	switch {
	case t == nil:
		t = newArena(n, k)
	case t.k != k:
		return nil, Slot{}, fmt.Errorf("core: cannot build arity %d into a %d-ary arena", k, t.k)
	case t.n != n:
		return nil, Slot{}, fmt.Errorf("core: cannot build %d nodes into a %d-node arena", n, t.n)
	default:
		t.root = 0
		clear(t.parent)
		clear(t.rc)
		t.rotations, t.edgeChanges = 0, 0
		t.trackEdges = false
		t.blockPolicy = BlockCentered
	}
	return t, Slot{iv: interval{hi: int32(n * k)}}, nil
}

// Place writes node id into slot s, with the routing elements ths: ids,
// strictly increasing, as a Spec's Thresholds. It returns the slot of
// the node's spec child 0; Child gives the others. Place only reads ths,
// so a construction may reuse it for the next node at once.
//
// Place is the one placement rule of every construction, Build's
// included. Internally routing elements are cuts in a value space
// scaled by k: id i sits at value i·k and a threshold t becomes the cut
// t·k. Every node is padded to exactly k−1 routing elements with cuts in
// the empty sliver just below its own id value, which never separate
// two ids (ids are k apart in cut space). A last threshold equal to the
// ancestor's routing element that bounds the node's interval is padded
// for too, so that no two nodes share a routing element; the
// always-empty slot it carved goes with it. Full routing arrays match
// the paper's node model (Fig. 1) and are preserved by rotations, which
// redistribute but never consume routing elements, and they are what
// makes the arena's fixed-stride threshold/child spans sound.
func (t *Tree) Place(s Slot, id int, ths []int) Slot {
	i, iv := t.at(s, id)
	return t.place(s.parent, i, id, iv, ths)
}

// at returns the padded child slot i of s.parent that node id takes in
// s, and that slot's interval. Spec slot c is padded slot c below the
// parent's pads and c+n above them; the spec slot the pads split (c = j)
// is on the side of them that id lies on.
func (t *Tree) at(s Slot, id int) (int, interval) {
	if s.parent == 0 {
		return 0, s.iv
	}
	i := int(s.c)
	if s.c > s.pads.j || s.c == s.pads.j && id > int(s.parent) {
		i += int(s.pads.n)
	}
	sp := t.span(s.parent)
	iv := s.iv
	if i > 0 {
		iv.lo = sp[2*i-1]
	}
	if i < t.k-1 {
		iv.hi = sp[2*i+1]
		iv.hiElem = true
	}
	return i, iv
}

// place is Place on a resolved slot: id goes into padded child slot i of
// parent (the root when parent is 0), whose interval is iv.
func (t *Tree) place(parent int32, i, id int, iv interval, ths []int) Slot {
	if m := len(ths); m > 0 && iv.hiElem && ths[m-1]*t.scale == int(iv.hi) {
		ths = ths[:m-1]
	}
	ix := int32(id)
	t.parent[ix] = parent
	if parent == 0 {
		t.root = ix
	} else {
		t.span(parent)[2*i] = ix
	}
	// The j thresholds below the id keep their positions, the pads follow
	// them up to just below the id value, and the rest move up by pad.
	sp := t.span(ix)
	pad := t.k - 1 - len(ths)
	q := 0
	for ; q < len(ths) && ths[q] < id; q++ {
		sp[2*q+1] = int32(ths[q] * t.scale)
	}
	j := q
	iv0 := int32(id*t.scale - pad)
	for p := 0; p < pad; p++ {
		sp[2*(j+p)+1] = iv0 + int32(p)
	}
	for ; q < len(ths); q++ {
		sp[2*(q+pad)+1] = int32(ths[q] * t.scale)
	}
	return Slot{parent: ix, pads: padRun{int32(j), int32(pad)}, iv: iv}
}
