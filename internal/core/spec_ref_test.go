package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// refBuild is Build as it was before materialization stopped allocating
// per node: each node's scaled thresholds and children are copied into
// fresh slices, padded by splicing, and only then written to the arena.
// It is kept as the test oracle that buildSpec's index-mapped padding
// must match arena for arena.
func refBuild(k int, spec *Spec) (*Tree, error) {
	n := countSpec(spec)
	if err := CheckIDRange(n, k); err != nil {
		return nil, err
	}
	t := newArena(n, k)
	seen := make([]bool, n+1)
	root, err := t.refBuildSpec(spec, 0, 0, n*k, seen)
	if err != nil {
		return nil, err
	}
	t.root = root
	return t, nil
}

func (t *Tree) refBuildSpec(s *Spec, parent int32, lo, hi int, seen []bool) (int32, error) {
	iv := s.ID * t.scale
	if s.ID < 1 || s.ID > t.n || iv <= lo || iv > hi || seen[s.ID] || len(s.Thresholds) > t.k-1 {
		return 0, fmt.Errorf("bad node %d", s.ID)
	}
	children := s.Children
	if children == nil {
		children = make([]*Spec, len(s.Thresholds)+1)
	}
	if len(children) != len(s.Thresholds)+1 {
		return 0, fmt.Errorf("node %d: slot count", s.ID)
	}
	ths := make([]int, len(s.Thresholds))
	prev := lo
	for i, th := range s.Thresholds {
		v := th * t.scale
		if v <= prev || v > hi {
			return 0, fmt.Errorf("node %d: thresholds", s.ID)
		}
		ths[i] = v
		prev = v
	}
	if pad := t.k - 1 - len(ths); pad > 0 {
		j := intervalIndex(ths, iv)
		var side int
		if ch := children[j]; ch != nil {
			clo, chi := specIDRange(ch)
			switch {
			case chi < s.ID:
				side = -1
			case clo > s.ID:
				side = +1
			default:
				return 0, fmt.Errorf("node %d: cannot pad", s.ID)
			}
		}
		newThs := append([]int{}, ths[:j]...)
		newChs := append([]*Spec{}, children[:j]...)
		if side <= 0 {
			newChs = append(newChs, children[j])
		} else {
			newChs = append(newChs, nil)
		}
		for p := pad; p >= 1; p-- {
			newThs = append(newThs, iv-p)
			if p > 1 {
				newChs = append(newChs, nil)
			}
		}
		if side > 0 {
			newChs = append(newChs, children[j])
		} else {
			newChs = append(newChs, nil)
		}
		ths = append(newThs, ths[j:]...)
		children = append(newChs, children[j+1:]...)
	}
	ix := int32(s.ID)
	seen[s.ID] = true
	t.parent[ix] = parent
	sp := t.span(ix)
	for i, v := range ths {
		sp[2*i+1] = int32(v)
	}
	slotLo := lo
	for i, chSpec := range children {
		slotHi := hi
		if i < len(ths) {
			slotHi = ths[i]
		}
		if chSpec != nil {
			if slotLo >= slotHi {
				return 0, fmt.Errorf("node %d: empty slot", s.ID)
			}
			ch, err := t.refBuildSpec(chSpec, ix, slotLo, slotHi, seen)
			if err != nil {
				return 0, err
			}
			sp[2*i] = ch
		}
		slotLo = slotHi
	}
	return ix, nil
}

// specIDRange returns the minimum and maximum id in the spec subtree.
func specIDRange(s *Spec) (lo, hi int) {
	lo, hi = s.ID, s.ID
	for _, ch := range s.Children {
		if ch == nil {
			continue
		}
		clo, chi := specIDRange(ch)
		lo, hi = min(lo, clo), max(hi, chi)
	}
	return lo, hi
}

// pathSpec is NewPath's spec: 1→2→…→n, each node's child right of its id.
func pathSpec(n int) *Spec {
	var spec *Spec
	for id := n; id >= 1; id-- {
		if spec == nil {
			spec = &Spec{ID: id}
		} else {
			spec = &Spec{ID: id, Thresholds: []int{id}, Children: []*Spec{nil, spec}}
		}
	}
	return spec
}

// TestBuildMatchesReference: the index-mapped padding places every
// threshold and child exactly where splicing did, on balanced, path and
// random specs — the last with children on both sides of the pads, empty
// slots, and leaves that leave Children nil.
func TestBuildMatchesReference(t *testing.T) {
	for _, n := range []int{1, 2, 3, 17, 255} {
		for _, k := range []int{2, 3, 4, 8, 32} {
			specs := map[string]*Spec{"balanced": BalancedSpec(1, n, k), "path": pathSpec(n)}
			for seed := int64(0); seed < 8; seed++ {
				specs[fmt.Sprintf("random-%d", seed)] = randomSpec(1, n, k, rand.New(rand.NewSource(seed)))
			}
			for name, spec := range specs {
				got, err := Build(k, spec)
				if err != nil {
					t.Fatalf("n=%d k=%d %s: %v", n, k, name, err)
				}
				want, err := refBuild(k, spec)
				if err != nil {
					t.Fatalf("n=%d k=%d %s: reference: %v", n, k, name, err)
				}
				if !reflect.DeepEqual(got.Snapshot(), want.Snapshot()) {
					t.Fatalf("n=%d k=%d %s: Build's arena differs from the reference", n, k, name)
				}
			}
		}
	}
}
