package core

import "fmt"

// Spec is a declarative description of a k-ary search tree used by the
// static builders (DP optimum, centroid tree, path, random tree) and by
// tests. Thresholds are given in id space (a threshold t means "ids ≤ t
// go left of this boundary"); Children has len(Thresholds)+1 entries
// (nil entries denote empty slots). As a convenience a leaf may leave
// Children nil.
//
// Build places each node as Place does (scaled cuts, pads, the
// boundary-threshold drop), after checking it.
type Spec struct {
	ID         int
	Thresholds []int
	Children   []*Spec
}

// Build materializes a Spec into a Tree with arity bound k, verifying the
// search property and that the identifiers are exactly 1..n. Every node
// goes in through Place, which pads its routing array to exactly k−1
// elements.
//
// Build allocates the whole arena up front (a handful of flat slices
// instead of one heap object per node) and nothing per node, so spec
// materialization — including the DP solver's result construction —
// costs O(1) allocations in the node count (TestBuildAllocsConstantInN
// pins it).
func Build(k int, spec *Spec) (*Tree, error) {
	if spec == nil {
		return nil, fmt.Errorf("core: nil spec")
	}
	n := countSpec(spec)
	t, root, err := Arena(nil, n, k)
	if err != nil {
		return nil, err
	}
	// n nodes with distinct ids in 1..n are exactly the ids 1..n.
	if err := t.buildSpec(spec, root, make([]bool, n+1)); err != nil {
		return nil, err
	}
	return t, nil
}

func countSpec(s *Spec) int {
	if s == nil {
		return 0
	}
	n := 1
	for _, ch := range s.Children {
		n += countSpec(ch)
	}
	return n
}

// buildSpec checks spec node s against slot at, places it there, and
// builds its children into its slots. A child goes to the side of its
// parent's pads that its own id lies on; a child subtree with ids on
// both sides of its parent's id is rejected by its first node outside
// that side's slot.
func (t *Tree) buildSpec(s *Spec, at Slot, seen []bool) error {
	i, iv := t.at(at, s.ID)
	lo, hi := int(iv.lo), int(iv.hi)
	if at.parent != 0 && lo >= hi {
		return fmt.Errorf("core: node %d has a child in an empty slot", at.parent)
	}
	if s.ID < 1 || s.ID > t.n {
		return fmt.Errorf("core: id %d out of range 1..%d", s.ID, t.n)
	}
	if iv := s.ID * t.scale; iv <= lo || iv > hi {
		return fmt.Errorf("core: id %d outside its slot interval", s.ID)
	}
	if seen[s.ID] {
		return fmt.Errorf("core: duplicate id %d", s.ID)
	}
	if len(s.Thresholds) > t.k-1 {
		return fmt.Errorf("core: node %d has %d routing elements, max is %d", s.ID, len(s.Thresholds), t.k-1)
	}
	// A nil Children is a leaf: every slot empty.
	if s.Children != nil && len(s.Children) != len(s.Thresholds)+1 {
		return fmt.Errorf("core: node %d has %d thresholds but %d child slots", s.ID, len(s.Thresholds), len(s.Children))
	}
	prev := lo
	for _, th := range s.Thresholds {
		v := th * t.scale
		if v <= prev {
			return fmt.Errorf("core: node %d thresholds not strictly increasing within its interval", s.ID)
		}
		if v > hi {
			return fmt.Errorf("core: node %d threshold %d exceeds its interval", s.ID, th)
		}
		prev = v
	}
	seen[s.ID] = true
	f := t.place(at.parent, i, s.ID, iv, s.Thresholds)
	kids := s.Children
	if m := t.k - 1 - int(f.pads.n); m < len(s.Thresholds) && kids != nil {
		// Place dropped the boundary threshold, and the slot it carved.
		if kids[m+1] != nil {
			return fmt.Errorf("core: node %d has a child in an empty slot", s.ID)
		}
		kids = kids[:m+1]
	}
	for c, ch := range kids {
		if ch != nil {
			if err := t.buildSpec(ch, f.Child(c), seen); err != nil {
				return err
			}
		}
	}
	return nil
}
