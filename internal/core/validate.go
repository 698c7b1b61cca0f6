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
//     slot interval in cut space, and the node's own id value does too,
//   - non-nil children occupy non-empty intervals,
//   - greedy search from the root reaches every id along its tree path
//     (local greedy routing works).
//
// Validate is O(n·depth) and makes the same allocations at every tree
// size and shape; it is used pervasively by tests and is cheap enough to
// call after every operation on small trees.
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
	if err := w.walk(t.root, 0, t.n*t.scale); err != nil {
		return err
	}
	if w.count != t.n {
		return fmt.Errorf("core: tree holds %d nodes, want %d", w.count, t.n)
	}
	// Greedy search must find every id along its tree path. Search runs
	// through the selected routing kernel, so this also exercises the
	// kernel on every span the tree currently holds.
	for id := 1; id <= t.n; id++ {
		hops, err := t.searchHops(id)
		if err != nil {
			return err
		}
		if want := t.depthIx(int32(id)); hops != want {
			return fmt.Errorf("core: search for %d took %d hops, node depth is %d", id, hops, want)
		}
	}
	// The selected span kernel must agree with the scalar reference on
	// every live span, probed exactly where branchless arithmetic could
	// plausibly diverge from the early-exit scan: at each threshold value
	// itself (the ≥ boundary), one cut on either side of it, and the
	// node's own id value.
	for id := 1; id <= t.n; id++ {
		sp := t.span(int32(id))
		if err := t.probeKernel(id, sp, int32(t.idValue(id))); err != nil {
			return err
		}
		for i := 1; i < len(sp); i += 2 {
			for _, c := range [3]int32{sp[i] - 1, sp[i], sp[i] + 1} {
				if err := t.probeKernel(id, sp, c); err != nil {
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
// cut-space interval (lo, hi].
func (v *validation) walk(ix int32, lo, hi int) error {
	t := v.t
	id := int(ix)
	if id < 1 || id > t.n {
		return fmt.Errorf("core: node id %d out of range 1..%d", id, t.n)
	}
	if v.seen[id] {
		return fmt.Errorf("core: id %d appears twice", id)
	}
	v.seen[id] = true
	v.count++
	iv := t.idValue(id)
	if iv <= lo || iv > hi {
		return fmt.Errorf("core: node %d outside its slot interval", id)
	}
	sp := t.span(ix)
	prev := lo
	for i := 1; i < len(sp); i += 2 {
		th := int(sp[i])
		if th <= prev {
			return fmt.Errorf("core: node %d routing elements not strictly increasing inside its interval", id)
		}
		if th > hi {
			return fmt.Errorf("core: node %d routing element exceeds its interval", id)
		}
		prev = th
	}
	slotLo := lo
	for i := 0; i < len(sp); i += 2 {
		slotHi := hi
		if i+1 < len(sp) {
			slotHi = int(sp[i+1])
		}
		if ch := sp[i]; ch != 0 {
			if t.parent[ch] != ix {
				return fmt.Errorf("core: node %d is child of %d but points at a different parent", ch, id)
			}
			if t.slot[ch] != int32(i/2) {
				return fmt.Errorf("core: node %d sits in slot %d of %d but its slot cache says %d", ch, i/2, id, t.slot[ch])
			}
			if slotLo >= slotHi {
				return fmt.Errorf("core: node %d has child %d in an empty slot", id, ch)
			}
			if err := v.walk(ch, slotLo, slotHi); err != nil {
				return err
			}
		}
		slotLo = slotHi
	}
	return nil
}

// probeKernel checks that the span kernel and the scalar reference pick
// the same slot of node id's span sp for cut-space value v.
func (t *Tree) probeKernel(id int, sp []int32, v int32) error {
	if got, want := t.kSpan(sp, v), slotScalar(sp, v); got != want {
		return fmt.Errorf("core: node %d kernel slot %d for value %d, scalar reference says %d", id, got, v, want)
	}
	return nil
}
