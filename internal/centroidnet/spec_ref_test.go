package centroidnet

import (
	"reflect"
	"testing"

	"github.com/ksan-net/ksan/internal/core"
)

// refSpec is the Spec the net's topology was built from before Compose
// wrote its arena directly: c1 at the root with the k−1 small subtrees
// and c2's subtree, c2 with the k large ones.
func refSpec(n, k int) *core.Spec {
	smallTotal := (n - 2) / (k + 1)
	c1, c2 := smallTotal+1, n
	c2spec := &core.Spec{ID: c2}
	bParts := evenParts(smallTotal+2, n-1, k)
	for i, p := range bParts {
		c2spec.Children = append(c2spec.Children, refBalancedSpec(p[0], p[1], k))
		if i < len(bParts)-1 {
			c2spec.Thresholds = append(c2spec.Thresholds, p[1])
		}
	}
	c1spec := &core.Spec{ID: c1}
	aParts := evenParts(1, smallTotal, k-1)
	for i, p := range aParts {
		c1spec.Children = append(c1spec.Children, refBalancedSpec(p[0], p[1], k))
		if i < len(aParts)-1 {
			c1spec.Thresholds = append(c1spec.Thresholds, p[1])
		}
	}
	c1spec.Thresholds = append(c1spec.Thresholds, c1)
	if len(aParts) == 0 {
		c1spec.Children = append(c1spec.Children, nil)
	}
	c1spec.Children = append(c1spec.Children, c2spec)
	return c1spec
}

// refBalancedSpec is the Spec of the weakly-complete k-ary search tree on
// the ids lo..hi that the former construction hung below the centroids
// (core's BalancedSpec, which pins NewBalanced, is the same rule).
func refBalancedSpec(lo, hi, k int) *core.Spec {
	if lo > hi {
		return nil
	}
	sizes := core.WeaklyCompleteSizes(hi-lo, k)
	id := lo + sizes[0]
	spec := &core.Spec{ID: id, Thresholds: []int{id}, Children: []*core.Spec{refBalancedSpec(lo, id-1, k)}}
	start := id + 1
	for _, size := range sizes[1:] {
		if size > 0 {
			spec.Thresholds = append(spec.Thresholds, start+size-1)
			spec.Children = append(spec.Children, refBalancedSpec(start, start+size-1, k))
			start += size
		}
	}
	spec.Thresholds = spec.Thresholds[:len(spec.Thresholds)-1]
	return spec
}

// TestTopologyMatchesSpec pins the arena Compose writes to the one
// core.Build made of the former Spec, at every node count from the
// smallest net to 40 and at 1 000.
func TestTopologyMatchesSpec(t *testing.T) {
	ns := []int{1000}
	for n := 3; n <= 40; n++ {
		ns = append(ns, n)
	}
	for _, k := range []int{2, 3, 4, 8} {
		for _, n := range ns {
			net, err := New(n, k)
			if err != nil {
				t.Fatalf("n=%d k=%d: %v", n, k, err)
			}
			if err := net.Tree().Validate(); err != nil {
				t.Fatalf("n=%d k=%d: %v", n, k, err)
			}
			want, err := core.Build(k, refSpec(n, k))
			if err != nil {
				t.Fatalf("n=%d k=%d: reference: %v", n, k, err)
			}
			if !reflect.DeepEqual(net.Tree().Snapshot(), want.Snapshot()) {
				t.Fatalf("n=%d k=%d: the written topology differs from Build of the former spec", n, k)
			}
		}
	}
}
