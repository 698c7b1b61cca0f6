package core

import "fmt"

// Validate checks every structural invariant of the k-ary search tree
// network and returns the first violation found:
//
//   - the arena covers exactly ids 1..n, parent/child links agree, and the
//     stable handle array points back at this tree,
//   - every node carries exactly k−1 routing elements (the paper's node
//     model, Fig. 1; Build pads arrays and rotations preserve fullness —
//     this is also what licenses the arena's fixed-stride spans)
//     and exactly one more child slot than routing elements,
//   - routing elements are strictly increasing and lie inside the node's
//     slot interval in cut space, and the node's own id value does too;
//     no element equals an upper bound that is an ancestor's element, so
//     no two nodes share a routing element (a rotation's in-order merge
//     needs them distinct),
//   - non-nil children occupy non-empty intervals, and the rebuilds' slot
//     search (slotBisect) sends the smallest and the largest id of each
//     child's subtree to the slot the child sits in,
//   - so greedy search from the root reaches every id along its tree
//     path (local greedy routing works): slotBisect counts the thresholds
//     below a value, which is monotone over a node's strictly increasing
//     thresholds, so every id between a subtree's extremes goes to its
//     slot too.
//
// Validate takes time linear in the node count, O(n·k·log k) with the
// span-search probes, and makes the same allocations at every tree size
// and shape; it is used pervasively by tests and is cheap enough to call
// after every operation on small trees.
func (t *Tree) Validate() error {
	if t.root == 0 {
		return fmt.Errorf("core: nil root")
	}
	if t.parent[t.root] != 0 {
		return fmt.Errorf("core: root %d has a parent", t.root)
	}
	if len(t.parent) != t.n+1 || len(t.nodes) != t.n+1 {
		return fmt.Errorf("core: arena has %d parent entries, want %d", len(t.parent), t.n+1)
	}
	if len(t.rc) != t.n*(2*t.k-1) {
		return fmt.Errorf("core: arena holds %d span entries, want %d", len(t.rc), t.n*(2*t.k-1))
	}
	for id := 1; id <= t.n; id++ {
		if h := &t.nodes[id]; h.t != t || h.ix != int32(id) {
			return fmt.Errorf("core: handle %d does not point back at its arena slot", id)
		}
	}
	w := validation{t: t, seen: make([]bool, t.n+1)}
	if _, _, err := w.walk(t.root, 0, t.n*t.scale, false); err != nil {
		return err
	}
	if w.count != t.n {
		return fmt.Errorf("core: tree holds %d nodes, want %d", w.count, t.n)
	}
	// The span search must agree with the scalar reference on every live
	// span, probed exactly where branchless arithmetic could
	// plausibly diverge from the early-exit scan: at each threshold value
	// itself (the ≥ boundary), one cut on either side of it, and the
	// node's own id value.
	for id := 1; id <= t.n; id++ {
		sp := t.span(int32(id))
		if err := probeSpanSearch(id, sp, int32(t.idValue(id))); err != nil {
			return err
		}
		for i := 1; i < len(sp); i += 2 {
			for _, c := range [3]int32{sp[i] - 1, sp[i], sp[i] + 1} {
				if err := probeSpanSearch(id, sp, c); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// validation is one Validate pass's walk state. walk is a method rather
// than a recursive closure, like DistIndex.tour, so that the pass makes
// the same allocations at every tree size and shape.
type validation struct {
	t     *Tree
	seen  []bool
	count int
}

// walk checks the subtree of arena index ix, whose slot covers the
// cut-space interval (lo, hi]; hiElem reports that hi is an ancestor's
// routing element rather than the top cut n·k. It returns the smallest
// and the largest id in the subtree.
func (v *validation) walk(ix int32, lo, hi int, hiElem bool) (first, last int, err error) {
	t := v.t
	id := int(ix)
	if id < 1 || id > t.n {
		return 0, 0, fmt.Errorf("core: node id %d out of range 1..%d", id, t.n)
	}
	if v.seen[id] {
		return 0, 0, fmt.Errorf("core: id %d appears twice", id)
	}
	v.seen[id] = true
	v.count++
	iv := t.idValue(id)
	if iv <= lo || iv > hi {
		return 0, 0, fmt.Errorf("core: node %d outside its slot interval", id)
	}
	sp := t.span(ix)
	prev := lo
	for i := 1; i < len(sp); i += 2 {
		th := int(sp[i])
		if th <= prev {
			return 0, 0, fmt.Errorf("core: node %d routing elements not strictly increasing inside its interval", id)
		}
		if th > hi {
			return 0, 0, fmt.Errorf("core: node %d routing element exceeds its interval", id)
		}
		if th == hi && hiElem {
			return 0, 0, fmt.Errorf("core: node %d repeats the routing element that bounds its interval", id)
		}
		prev = th
	}
	first, last = id, id
	slotLo := lo
	for i := 0; i < len(sp); i += 2 {
		slotHi := hi
		if i+1 < len(sp) {
			slotHi = int(sp[i+1])
		}
		if ch := sp[i]; ch != 0 {
			if t.parent[ch] != ix {
				return 0, 0, fmt.Errorf("core: node %d is child of %d but points at a different parent", ch, id)
			}
			if slotLo >= slotHi {
				return 0, 0, fmt.Errorf("core: node %d has child %d in an empty slot", id, ch)
			}
			cFirst, cLast, err := v.walk(ch, slotLo, slotHi, hiElem || i+1 < len(sp))
			if err != nil {
				return 0, 0, err
			}
			if a, b := slotBisect(sp, int32(t.idValue(cFirst))), slotBisect(sp, int32(t.idValue(cLast))); a != i/2 || b != i/2 {
				return 0, 0, fmt.Errorf("core: child %d sits in slot %d of %d, but the rebuilds' slot lookup sends its subtree's ids %d and %d to slots %d and %d",
					ch, i/2, id, cFirst, cLast, a, b)
			}
			first, last = min(first, cFirst), max(last, cLast)
		}
		slotLo = slotHi
	}
	return first, last, nil
}

// probeSpanSearch checks that the span search (slotBisect) and the scalar
// reference pick the same slot of node id's span sp for cut-space value v.
func probeSpanSearch(id int, sp []int32, v int32) error {
	if got, want := slotBisect(sp, v), slotScalar(sp, v); got != want {
		return fmt.Errorf("core: node %d span search slot %d for value %d, scalar reference says %d", id, got, v, want)
	}
	return nil
}
