package policy

import (
	"testing"

	"github.com/ksan-net/ksan/internal/core"
)

// mapLinkChurn is the retired map-based reference implementation of the
// reconfiguration cost (one heap-allocated bucket entry per edge per
// call): the literal symmetric difference of the two link sets, which the
// parent-array count must match on every input.
func mapLinkChurn(old, fresh *core.Tree) int64 {
	op := old.Parents()
	np := fresh.Parents()
	undirected := func(a, b int) [2]int {
		if a > b {
			a, b = b, a
		}
		return [2]int{a, b}
	}
	oldSet := make(map[[2]int]bool, len(op))
	for id := 1; id < len(op); id++ {
		if op[id] != 0 {
			oldSet[undirected(id, op[id])] = true
		}
	}
	var churn int64
	for id := 1; id < len(np); id++ {
		if np[id] == 0 {
			continue
		}
		e := undirected(id, np[id])
		if oldSet[e] {
			delete(oldSet, e)
		} else {
			churn++ // added
		}
	}
	churn += int64(len(oldSet)) // removed
	return churn
}

func TestLinkChurnMatchesMapReference(t *testing.T) {
	for _, n := range []int{1, 2, 3, 17, 40, 101, 257} {
		for _, k := range []int{2, 3, 5} {
			for seed := int64(0); seed < 6; seed++ {
				a, err := core.NewRandom(n, k, seed)
				if err != nil {
					t.Fatal(err)
				}
				b, err := core.NewRandom(n, k, seed+1000)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := linkChurn(a, b), mapLinkChurn(a, b); got != want {
					t.Fatalf("n=%d k=%d seed=%d: churn %d, map reference %d", n, k, seed, got, want)
				}
			}
		}
	}
	// Structured pairs the random sweep may miss: balanced against path,
	// the lazy serving workload's shape (n=4095, k=4), and the two 2-node
	// trees rooted at 1 and at 2, whose one link survives with parent and
	// child swapped — churn 0.
	must := func(tr *core.Tree, err error) *core.Tree {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	rootedAt2 := &core.Spec{ID: 2, Thresholds: []int{1}, Children: []*core.Spec{{ID: 1}, nil}}
	for _, c := range []struct {
		name string
		a, b *core.Tree
		same bool // the trees share every link
	}{
		{"balanced vs path", must(core.NewBalanced(64, 3)), must(core.NewPath(64, 3)), false},
		{"n=4095 k=4", must(core.NewBalanced(4095, 4)), must(core.NewRandom(4095, 4, 1)), false},
		{"rooted at 1 vs at 2", must(core.NewPath(2, 2)), must(core.Build(2, rootedAt2)), true},
	} {
		got, want := linkChurn(c.a, c.b), mapLinkChurn(c.a, c.b)
		if got != want || c.same && got != 0 {
			t.Fatalf("%s: churn %d, map reference %d (shared links only: %v)", c.name, got, want, c.same)
		}
	}
}

func TestLinkChurnProperties(t *testing.T) {
	// A known-distinct pair must report nonzero churn (random trees below
	// are almost surely distinct, but only this pair is guaranteed).
	bal, err := core.NewBalanced(40, 3)
	if err != nil {
		t.Fatal(err)
	}
	path, err := core.NewPath(40, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := linkChurn(bal, path); got == 0 {
		t.Error("distinct topologies (balanced vs path) reported zero churn")
	}

	// linkChurn is the model's reconfiguration cost (links added plus
	// removed when a rebuild swaps topologies): the size of the symmetric
	// difference of the two undirected link sets. Over random valid
	// topologies it must be symmetric in its arguments, zero for identical
	// topologies, bounded by 2(n−1) (both trees have exactly n−1 links, so
	// at worst all are removed and all are added), and obey the triangle
	// inequality of symmetric differences.
	for _, n := range []int{2, 3, 17, 40, 101} {
		for _, k := range []int{2, 3, 5} {
			for seed := int64(0); seed < 4; seed++ {
				a, err := core.NewRandom(n, k, seed)
				if err != nil {
					t.Fatal(err)
				}
				b, err := core.NewRandom(n, k, seed+100)
				if err != nil {
					t.Fatal(err)
				}
				c, err := core.NewRandom(n, k, seed+200)
				if err != nil {
					t.Fatal(err)
				}
				ab, ba := linkChurn(a, b), linkChurn(b, a)
				if ab != ba {
					t.Errorf("n=%d k=%d seed=%d: churn not symmetric: %d vs %d", n, k, seed, ab, ba)
				}
				if ab < 0 || ab > int64(2*(n-1)) {
					t.Errorf("n=%d k=%d seed=%d: churn %d outside [0, 2(n-1)=%d]", n, k, seed, ab, 2*(n-1))
				}
				if got := linkChurn(a, a); got != 0 {
					t.Errorf("n=%d k=%d seed=%d: identical topologies churn %d", n, k, seed, got)
				}
				if ac, cb := linkChurn(a, c), linkChurn(c, b); ab > ac+cb {
					t.Errorf("n=%d k=%d seed=%d: triangle inequality violated: %d > %d + %d", n, k, seed, ab, ac, cb)
				}
			}
		}
	}
}

// BenchmarkLinkChurn measures linkChurn.
func BenchmarkLinkChurn(b *testing.B) {
	a, _ := core.NewRandom(1023, 4, 1)
	c, _ := core.NewRandom(1023, 4, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		linkChurn(a, c)
	}
}

func BenchmarkLinkChurnMapReference(b *testing.B) {
	a, _ := core.NewRandom(1023, 4, 1)
	c, _ := core.NewRandom(1023, 4, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mapLinkChurn(a, c)
	}
}

func TestLinkChurnZeroSteadyStateAllocs(t *testing.T) {
	a, err := core.NewRandom(200, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.NewRandom(200, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(200, func() { linkChurn(a, b) }); avg != 0 {
		t.Errorf("%.2f allocs per linkChurn, want 0", avg)
	}
}
