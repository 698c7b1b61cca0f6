package statictree

import (
	"runtime"
	"testing"

	"github.com/ksan-net/ksan/internal/core"
)

// TestDistIndexRebuildZeroAllocs pins the oracle-reuse contract that lets
// policy.Net keep one DistIndex alive across static stretches: after the
// first build, re-indexing over a same-size topology — whether the same
// tree after rotations or an entirely different tree, the lazy net's
// swap pattern — reuses every backing array and allocates nothing.
func TestDistIndexRebuildZeroAllocs(t *testing.T) {
	t1, err := core.NewBalanced(511, 3)
	if err != nil {
		t.Fatal(err)
	}
	ix := NewDistIndex(t1)

	// Same tree, mutated between rebuilds (a splay-family stretch).
	if avg := testing.AllocsPerRun(100, func() {
		t1.SplayUntilParent(t1.NodeByID(300), nil)
		ix.Rebuild(t1)
	}); avg != 0 {
		t.Errorf("Rebuild over a mutated same tree: %.2f allocs, want 0", avg)
	}

	// A different same-size tree (the lazy net's rebuild swap).
	t2, err := core.NewRandom(511, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(100, func() { ix.Rebuild(t2) }); avg != 0 {
		t.Errorf("Rebuild over a swapped tree: %.2f allocs, want 0", avg)
	}

	// Reuse must not corrupt answers: the re-indexed oracle agrees with
	// the tree's own pointer walks.
	ix.Rebuild(t2)
	for u := 1; u <= 511; u += 37 {
		for v := 1; v <= 511; v += 53 {
			if got, want := ix.Dist(u, v), int64(t2.DistanceID(u, v)); got != want {
				t.Fatalf("Dist(%d,%d) after reuse = %d, tree walk says %d", u, v, got, want)
			}
		}
	}
}

// TestOptimalUniformAllocsConstantInN pins the uniform solve's allocation
// contract: its tables, the writer's scratch of k−1 routing elements and
// the arena, the same count at any node count. Reconstructing the tree
// used to allocate per node. The first collection in a process starts
// the runtime's mark workers, allocations AllocsPerRun would count
// against the n=4095 solves, which can trigger it; runtime.GC starts
// them first.
func TestOptimalUniformAllocsConstantInN(t *testing.T) {
	runtime.GC()
	for _, k := range []int{2, 4, 32} {
		var allocs [2]float64
		for i, n := range []int{255, 4095} {
			allocs[i] = testing.AllocsPerRun(5, func() {
				if _, _, err := OptimalUniform(n, k); err != nil {
					t.Fatal(err)
				}
			})
		}
		if allocs[0] != allocs[1] {
			t.Errorf("k=%d: OptimalUniform made %.0f allocs at n=255 but %.0f at n=4095, want the same count",
				k, allocs[0], allocs[1])
		}
	}
}
