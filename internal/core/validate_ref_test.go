package core

import (
	"fmt"
	"testing"
)

// validateBySearch is Validate as it was before its search check became
// linear: the walk checked each child's own id against the slot lookup,
// and then a greedy search ran from the root for every id and had to
// take exactly the id's depth in hops, O(n·depth) in all (about 69 s on
// TestBuildPaddedPathLinear's 100 000-node path). It is kept as the
// reference that Validate must agree with, snapshot for snapshot.
func (t *Tree) validateBySearch() error {
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
	w := searchValidation{t: t, seen: make([]bool, t.n+1)}
	if err := w.walk(t.root, 0, t.n*t.scale, false); err != nil {
		return err
	}
	if w.count != t.n {
		return fmt.Errorf("core: tree holds %d nodes, want %d", w.count, t.n)
	}
	// Greedy search must find every id along its tree path. Search runs
	// through slotFor, so this also exercises the span search on every
	// span the tree currently holds.
	for id := 1; id <= t.n; id++ {
		hops, err := t.searchHops(id)
		if err != nil {
			return err
		}
		if want := t.depthIx(int32(id)); hops != want {
			return fmt.Errorf("core: search for %d took %d hops, node depth is %d", id, hops, want)
		}
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

// searchValidation is one validateBySearch pass's walk state.
type searchValidation struct {
	t     *Tree
	seen  []bool
	count int
}

// walk checks the subtree of arena index ix, whose slot covers the
// cut-space interval (lo, hi]; hiElem reports that hi is an ancestor's
// routing element rather than the top cut n·k.
func (v *searchValidation) walk(ix int32, lo, hi int, hiElem bool) error {
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
		if th == hi && hiElem {
			return fmt.Errorf("core: node %d repeats the routing element that bounds its interval", id)
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
			if slotLo >= slotHi {
				return fmt.Errorf("core: node %d has child %d in an empty slot", id, ch)
			}
			if err := v.walk(ch, slotLo, slotHi, hiElem || i+1 < len(sp)); err != nil {
				return err
			}
			if c := slotBisect(sp, int32(t.idValue(int(ch)))); c != i/2 {
				return fmt.Errorf("core: node %d sits in slot %d of %d but the rebuilds' slot lookup says %d", ch, i/2, id, c)
			}
		}
		slotLo = slotHi
	}
	return nil
}

// searchHops is SearchFromRoot without the path: how many hops greedy
// search for id (in 1..n) takes from the root.
func (t *Tree) searchHops(id int) (int, error) {
	value := int32(t.idValue(id))
	hops := 0
	for ix := t.root; int(ix) != id; hops++ {
		ch := t.span(ix)[2*t.slotFor(ix, value)]
		if ch == 0 {
			return hops, fmt.Errorf("core: search for %d dead-ends at node %d (search property violated)", id, ix)
		}
		ix = ch
	}
	return hops, nil
}

// checksAgree restores s and runs Validate and validateBySearch on it,
// returning an error when one accepts what the other rejects; a
// snapshot that restore refuses reaches neither. It reports whether s
// was restored and whether both checks accepted it.
func checksAgree(s Snapshot) (restored, accepted bool, err error) {
	tr, err := restore(s)
	if err != nil {
		return false, false, nil
	}
	got, want := tr.Validate(), tr.validateBySearch()
	if (got == nil) != (want == nil) {
		return true, false, fmt.Errorf("Validate: %v; the greedy-search check: %v", got, want)
	}
	return true, got == nil, nil
}

// TestValidateMatchesSearchReference: the linear check rejects exactly
// the snapshots the per-id greedy search rejected. The snapshots are
// FuzzFromSnapshot's seed corpus and hand-made corruptions of a left
// path, a balanced, two random and a splayed tree: every span entry
// moved by ±1 and by ±k, every parent link moved by one, every child
// slot emptied, adjacent child slots swapped, and every node re-hung,
// links consistent, in every empty slot of every other node.
func TestValidateMatchesSearchReference(t *testing.T) {
	var restored, accepted int
	check := func(label string, s Snapshot) {
		t.Helper()
		r, a, err := checksAgree(s)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if r {
			restored++
		}
		if a {
			accepted++
		}
	}
	for i, seed := range fromSnapshotSeeds {
		check(fmt.Sprintf("seed %d", i), seed.snapshot(t))
	}
	path, err := NewPath(25, 3)
	if err != nil {
		t.Fatal(err)
	}
	random2, err := NewRandom(24, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	random3, err := NewRandom(30, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	bases := map[string]*Tree{
		"path":     path,
		"balanced": MustNewBalanced(30, 5),
		"random2":  random2,
		"random3":  random3,
		"splayed":  splayedTree(t, 30, 4, 2),
	}
	for name, tr := range bases {
		base := tr.Snapshot()
		check(name, base)
		k, stride := int32(base.K), 2*base.K-1
		mutate := func(label string, f func(s *Snapshot)) {
			s := tr.Snapshot()
			f(&s)
			check(name+": "+label, s)
		}
		for j := range base.RC {
			for _, d := range []int32{-k, -1, 1, k} {
				mutate(fmt.Sprintf("RC[%d] %+d", j, d), func(s *Snapshot) { s.RC[j] += d })
			}
			if off := j % stride; off%2 == 0 {
				mutate(fmt.Sprintf("RC[%d] emptied", j), func(s *Snapshot) { s.RC[j] = 0 })
				if off+2 < stride {
					mutate(fmt.Sprintf("RC[%d] swapped with the next slot", j), func(s *Snapshot) {
						s.RC[j], s.RC[j+2] = s.RC[j+2], s.RC[j]
					})
				}
			}
		}
		for id := 1; id <= base.N; id++ {
			mutate(fmt.Sprintf("parent of %d +1", id), func(s *Snapshot) { s.Parent[id]++ })
		}
		for c := 1; c <= base.N; c++ {
			p := base.Parent[c]
			if p == 0 {
				continue
			}
			for a := 1; a <= base.N; a++ {
				if int32(a) == p || a == c {
					continue
				}
				for slot := 0; slot < base.K; slot++ {
					at := (a-1)*stride + 2*slot
					if base.RC[at] != 0 {
						continue
					}
					mutate(fmt.Sprintf("%d re-hung in slot %d of %d", c, slot, a), func(s *Snapshot) {
						for x := (int(p) - 1) * stride; x < int(p)*stride; x += 2 {
							if s.RC[x] == int32(c) {
								s.RC[x] = 0
							}
						}
						s.RC[at] = int32(c)
						s.Parent[c] = int32(a)
					})
				}
			}
		}
	}
	if accepted == 0 || accepted == restored {
		t.Fatalf("%d snapshots restored, %d accepted: the checks were not compared on both outcomes", restored, accepted)
	}
	t.Logf("%d snapshots restored, %d accepted by both checks", restored, accepted)
}
