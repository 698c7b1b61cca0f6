package core

import (
	"fmt"
	"slices"
	"testing"
)

// BalancedSpec is the Spec of a weakly-complete k-ary search tree on the
// id interval [lo,hi], as NewBalanced built it through Build before it
// wrote the arena directly; it returns nil for an empty interval. It is
// kept as the test reference the balanced writer must match arena for
// arena. The root's id doubles as its first routing element
// (routing-based placement), sitting between the first child interval
// and the rest.
func BalancedSpec(lo, hi, k int) *Spec {
	m := hi - lo + 1
	if m <= 0 {
		return nil
	}
	sizes := WeaklyCompleteSizes(m-1, k)
	id := lo + sizes[0]
	spec := &Spec{ID: id}
	// Slot 0 covers (lo-1, id]: the first child's ids plus the root id.
	spec.Thresholds = append(spec.Thresholds, id)
	spec.Children = append(spec.Children, BalancedSpec(lo, id-1, k))
	slotLo := id + 1
	for i := 1; i < len(sizes); i++ {
		if sizes[i] == 0 {
			continue
		}
		end := slotLo + sizes[i] - 1
		spec.Thresholds = append(spec.Thresholds, end)
		spec.Children = append(spec.Children, BalancedSpec(slotLo, end, k))
		slotLo = end + 1
	}
	// Drop the final threshold: the last child lives in the open-ended last
	// slot, keeping the routing array within k-1 entries.
	spec.Thresholds = spec.Thresholds[:len(spec.Thresholds)-1]
	return spec
}

// MustNewBalanced is NewBalanced for known-good parameters.
func MustNewBalanced(n, k int) *Tree {
	t, err := NewBalanced(n, k)
	if err != nil {
		panic(err)
	}
	return t
}

// MustBuild is Build for specs known to be valid; it panics on error.
func MustBuild(k int, spec *Spec) *Tree {
	t, err := Build(k, spec)
	if err != nil {
		panic(err)
	}
	return t
}

// sameArena reports whether a and b hold the same tree: arity, node
// count, root, parents and spans (parent[0] is rebuild scratch).
func sameArena(a, b *Tree) bool {
	return a.k == b.k && a.n == b.n && a.root == b.root &&
		slices.Equal(a.parent[1:], b.parent[1:]) && slices.Equal(a.rc, b.rc)
}

// TestNewBalancedMatchesSpec pins the balanced writer to the Spec path
// it replaced: NewBalanced(n, k) writes the arena Build(k, BalancedSpec)
// materializes, at sizes from a single node to two full 16-level binary
// trees and at arities up to 100, where a node's scratch outgrows any
// small fixed buffer.
func TestNewBalancedMatchesSpec(t *testing.T) {
	ns := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 31, 32, 33, 127, 1000, 4095, 32768, 65535}
	for _, k := range []int{2, 3, 4, 5, 8, 16, 32, 100} {
		for _, n := range ns {
			got, err := NewBalanced(n, k)
			if err != nil {
				t.Fatalf("n=%d k=%d: %v", n, k, err)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("n=%d k=%d: %v", n, k, err)
			}
			want, err := Build(k, BalancedSpec(1, n, k))
			if err != nil {
				t.Fatalf("n=%d k=%d: reference: %v", n, k, err)
			}
			if !sameArena(got, want) {
				t.Fatalf("n=%d k=%d: NewBalanced's arena differs from Build(BalancedSpec)'s", n, k)
			}
		}
	}
}

// TestNewBalancedAllocsConstantInN: the balanced writer allocates the
// arena and one scratch for a node's routing elements, the same count at
// any node count and nothing per node.
func TestNewBalancedAllocsConstantInN(t *testing.T) {
	for _, k := range []int{2, 4, 32, 100} {
		var allocs [2]float64
		for i, n := range []int{255, 4095} {
			allocs[i] = testing.AllocsPerRun(20, func() {
				if _, err := NewBalanced(n, k); err != nil {
					t.Fatal(err)
				}
			})
		}
		if allocs[0] != allocs[1] {
			t.Errorf("k=%d: NewBalanced made %.0f allocs at n=255 but %.0f at n=4095, want the same count",
				k, allocs[0], allocs[1])
		}
	}
}

// FuzzNewBalanced fuzzes the balanced writer against the Spec path: the
// node count is 1 + nRaw mod 8192 and the arity 2 + kRaw, up to 257, so
// a node's routing elements outgrow any small fixed buffer. NewBalanced
// must write the arena Build(k, BalancedSpec) materializes, and it must
// validate.
func FuzzNewBalanced(f *testing.F) {
	f.Fuzz(func(t *testing.T, nRaw uint16, kRaw uint8) {
		n, k := 1+int(nRaw)%8192, 2+int(kRaw)
		got, err := NewBalanced(n, k)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Build(k, BalancedSpec(1, n, k))
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		if !sameArena(got, want) {
			t.Fatalf("n=%d k=%d: NewBalanced's arena differs from Build(BalancedSpec)'s", n, k)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("n=%d k=%d: %v", n, k, err)
		}
	})
}

// BenchmarkNewBalanced times the starting tree of a k-ary SplayNet at
// the shapes of perfbench's splay workloads: one n=65 535, k=4 tree
// (splay-temporal-k4) and one n=32 768, k=32 shard
// (splay-uniform-k32-s2).
func BenchmarkNewBalanced(b *testing.B) {
	for _, c := range []struct{ n, k int }{{65535, 4}, {32768, 32}} {
		b.Run(fmt.Sprintf("n=%d/k=%d", c.n, c.k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewBalanced(c.n, c.k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
