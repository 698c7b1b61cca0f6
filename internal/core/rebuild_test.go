package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// ids returns the sorted list of ids present, for id-permanence checks.
func ids(t *Tree) []int {
	out := make([]int, 0, t.N())
	for id := 1; id <= t.N(); id++ {
		if t.NodeByID(id) != nil {
			out = append(out, id)
		}
	}
	return out
}

func TestSemiSplayMakesChildParent(t *testing.T) {
	for _, k := range []int{2, 3, 5, 8} {
		tr := MustNewBalanced(100, k)
		root := tr.Root()
		var ch *Node
		for i := 0; i < root.NumSlots(); i++ {
			if root.Child(i) != nil {
				ch = root.Child(i)
				break
			}
		}
		if err := tr.SemiSplay(ch); err != nil {
			t.Fatal(err)
		}
		if tr.Root() != ch {
			t.Fatalf("k=%d: semi-splayed child did not become root", k)
		}
		if ch.Parent() != nil {
			t.Fatalf("k=%d: new root still has a parent", k)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("k=%d: tree invalid after semi-splay: %v", k, err)
		}
		if got := tr.Rotations(); got != 1 {
			t.Errorf("k=%d: rotations=%d, want 1", k, got)
		}
	}
}

func TestSemiSplayRejectsRoot(t *testing.T) {
	tr := MustNewBalanced(10, 3)
	if err := tr.SemiSplay(tr.Root()); err == nil {
		t.Error("SemiSplay(root) should fail")
	}
}

func TestSplayStepLiftsByTwo(t *testing.T) {
	for _, k := range []int{2, 3, 4, 7} {
		tr := MustNewBalanced(200, k)
		// Find a node at depth >= 2.
		var z *Node
		for id := 1; id <= 200; id++ {
			if nd := tr.NodeByID(id); tr.Depth(nd) >= 2 {
				z = nd
				break
			}
		}
		d0 := tr.Depth(z)
		if err := tr.SplayStep(z); err != nil {
			t.Fatal(err)
		}
		if got := tr.Depth(z); got != d0-2 {
			t.Fatalf("k=%d: depth after k-splay = %d, want %d", k, got, d0-2)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("k=%d: invalid after k-splay: %v", k, err)
		}
	}
}

func TestSplayStepRejectsShallowNodes(t *testing.T) {
	tr := MustNewBalanced(10, 3)
	if err := tr.SplayStep(tr.Root()); err == nil {
		t.Error("SplayStep(root) should fail")
	}
	var ch *Node
	for i := 0; i < tr.Root().NumSlots(); i++ {
		if c := tr.Root().Child(i); c != nil {
			ch = c
			break
		}
	}
	if err := tr.SplayStep(ch); err == nil {
		t.Error("SplayStep(depth-1 node) should fail")
	}
}

func TestSplayUntilParentToRoot(t *testing.T) {
	for _, k := range []int{2, 3, 5, 10} {
		for seed := int64(0); seed < 5; seed++ {
			tr, err := NewRandom(150, k, seed)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed + 100))
			for trial := 0; trial < 30; trial++ {
				x := tr.NodeByID(1 + rng.Intn(150))
				tr.SplayUntilParent(x, nil)
				if tr.Root() != x {
					t.Fatalf("k=%d: node %d not at root after splay", k, x.ID())
				}
				if err := tr.Validate(); err != nil {
					t.Fatalf("k=%d seed=%d trial=%d: %v", k, seed, trial, err)
				}
			}
		}
	}
}

func TestSplayUntilParentStopsAtStop(t *testing.T) {
	tr := MustNewBalanced(255, 2)
	root := tr.Root()
	// Splay a deep node until it is a direct child of the (unchanged) root.
	var deep *Node
	for id := 1; id <= 255; id++ {
		if nd := tr.NodeByID(id); tr.Depth(nd) == tr.Height() {
			deep = nd
			break
		}
	}
	tr.SplayUntilParent(deep, root)
	if deep.Parent() != root {
		t.Fatalf("node %d parent is %v, want root", deep.ID(), deep.Parent().ID())
	}
	if tr.Root() != root {
		t.Fatal("root moved although it was the stop node")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSemiSplayUntilParentReachesTarget(t *testing.T) {
	tr := MustNewBalanced(127, 4)
	x := tr.NodeByID(97)
	tr.SemiSplayUntilParent(x, nil)
	if tr.Root() != x {
		t.Fatal("semi-splay-only did not reach the root")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestIdentifierPermanence(t *testing.T) {
	// The defining property of the network setting (vs. k-ary search trees):
	// node identifiers never change across rotations.
	tr := MustNewBalanced(80, 3)
	want := ids(tr)
	nodesBefore := make(map[int]*Node)
	for id := 1; id <= 80; id++ {
		nodesBefore[id] = tr.NodeByID(id)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		x := tr.NodeByID(1 + rng.Intn(80))
		tr.SplayUntilParent(x, nil)
	}
	got := ids(tr)
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("id set changed under rotations")
		}
	}
	for id := 1; id <= 80; id++ {
		if tr.NodeByID(id) != nodesBefore[id] {
			t.Fatalf("node object for id %d was replaced; identifiers must be permanent", id)
		}
		if tr.NodeByID(id).ID() != id {
			t.Fatalf("node %d changed its identifier", id)
		}
	}
}

func TestRotationCounterAdvances(t *testing.T) {
	tr := MustNewBalanced(63, 2)
	var deep *Node
	for id := 1; id <= 63; id++ {
		if nd := tr.NodeByID(id); tr.Depth(nd) == 5 {
			deep = nd
			break
		}
	}
	tr.SplayUntilParent(deep, nil)
	// Depth 5 → root: two double steps + one single, or similar; at least
	// ceil(5/2) and at most 5 rotations.
	if r := tr.Rotations(); r < 3 || r > 5 {
		t.Errorf("rotations=%d, want within [3,5]", r)
	}
	tr.ResetCounters()
	if tr.Rotations() != 0 {
		t.Error("ResetCounters did not zero rotations")
	}
}

// TestEdgeChangeTracking: a zig at the root of a balanced binary tree is
// a BST rotation, which moves one subtree across and so changes exactly
// two links: one removed, one added. The link between the two rotated
// nodes stays, however its direction turns.
func TestEdgeChangeTracking(t *testing.T) {
	tr := MustNewBalanced(63, 2)
	tr.SetTrackEdges(true)
	var ch *Node
	for i := 0; i < tr.Root().NumSlots(); i++ {
		if c := tr.Root().Child(i); c != nil {
			ch = c
			break
		}
	}
	if err := trackedStep(t, tr, tr.SemiSplay, ch); err != nil {
		t.Fatal(err)
	}
	if got := tr.EdgeChanges(); got != 2 {
		t.Errorf("a zig at the root changed %d links, want 2", got)
	}
}

// TestRebuildChurnMatchesParentDiff applies SemiSplay and SplayStep to
// random nodes of random trees, under both block policies, and checks
// after every rebuild that EdgeChanges grew by exactly the links that
// differ between the parent arrays before and after it.
func TestRebuildChurnMatchesParentDiff(t *testing.T) {
	for _, k := range []int{2, 3, 4, 8, 16, 32} {
		for _, policy := range []BlockPolicy{BlockCentered, BlockLeftmost} {
			t.Run(fmt.Sprintf("k=%d/policy=%d", k, policy), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(10*k) + int64(policy)))
				var steps [2]int
				for trial := 0; trial < 6; trial++ {
					n := 2 + rng.Intn(150)
					tr, err := NewRandom(n, k, rng.Int63())
					if err != nil {
						t.Fatal(err)
					}
					tr.SetBlockPolicy(policy)
					tr.SetTrackEdges(true)
					for range 300 {
						x := tr.NodeByID(1 + rng.Intn(n))
						kind := rng.Intn(2)
						step := tr.SemiSplay
						if kind == 1 {
							step = tr.SplayStep
						}
						if trackedStep(t, tr, step, x) == nil {
							steps[kind]++
						}
					}
					if err := tr.Validate(); err != nil {
						t.Fatal(err)
					}
				}
				if steps[0] == 0 || steps[1] == 0 {
					t.Fatalf("%d semi-splay and %d splay steps ran; want both kinds", steps[0], steps[1])
				}
			})
		}
	}
}

// trackedStep runs one single-step rotation, step(x), on tr, whose edge
// tracking is on, and fails t unless EdgeChanges grew by parentDiff of
// the parent arrays around it. It returns step's error (a root cannot
// rotate, nor a child of the root take a k-splay step).
func trackedStep(t *testing.T, tr *Tree, step func(*Node) error, x *Node) error {
	t.Helper()
	before := slices.Clone(tr.parent)
	churn := tr.EdgeChanges()
	if err := step(x); err != nil {
		return err
	}
	if got, want := tr.EdgeChanges()-churn, parentDiff(before, tr.parent); got != want {
		t.Fatalf("rotating node %d (k=%d) counted %d changed links, the parent arrays differ in %d", x.ID(), tr.K(), got, want)
	}
	return nil
}

// parentDiff is the number of links in one of the trees two parent
// arrays describe but not in the other, counted through a map of
// undirected links. Index 0 is not a node.
func parentDiff(before, after []int32) int64 {
	links := make(map[[2]int32]int)
	for d, par := range [2][]int32{before, after} {
		for v := int32(1); v < int32(len(par)); v++ {
			if p := par[v]; p != 0 {
				links[[2]int32{min(v, p), max(v, p)}] += 1 - 2*d
			}
		}
	}
	diff := int64(0)
	for _, c := range links {
		if c != 0 {
			diff++
		}
	}
	return diff
}

func TestBlockPolicyLeftmostStillValid(t *testing.T) {
	for _, k := range []int{3, 6} {
		tr := MustNewBalanced(120, k)
		tr.SetBlockPolicy(BlockLeftmost)
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 150; i++ {
			tr.SplayUntilParent(tr.NodeByID(1+rng.Intn(120)), nil)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("k=%d leftmost-block policy broke invariants: %v", k, err)
		}
	}
}

func TestRepeatedSplaySameNodeIsCheap(t *testing.T) {
	// Splaying the node that is already root must cost zero rotations.
	tr := MustNewBalanced(100, 3)
	x := tr.NodeByID(42)
	tr.SplayUntilParent(x, nil)
	r := tr.Rotations()
	tr.SplayUntilParent(x, nil)
	if tr.Rotations() != r {
		t.Error("splaying the root again performed rotations")
	}
}

func TestBlockSizeFeasibility(t *testing.T) {
	// For every (avail, remNodes, maxB) the chosen size must keep the rest
	// placeable: avail-b ≤ maxB*(remNodes-1), 0 ≤ b ≤ min(maxB, avail).
	for maxB := 1; maxB <= 9; maxB++ {
		for remNodes := 2; remNodes <= 4; remNodes++ {
			for avail := 0; avail <= maxB*remNodes; avail++ {
				b := blockSize(avail, remNodes, maxB)
				if b < 0 || b > maxB || b > avail {
					t.Fatalf("blockSize(%d,%d,%d)=%d out of range", avail, remNodes, maxB, b)
				}
				if avail-b > maxB*(remNodes-1) {
					t.Fatalf("blockSize(%d,%d,%d)=%d leaves %d elements for %d nodes",
						avail, remNodes, maxB, b, avail-b, remNodes-1)
				}
			}
		}
	}
}

func TestIntervalIndex(t *testing.T) {
	elems := []int{3, 7, 10}
	cases := []struct{ id, want int }{
		{1, 0}, {3, 0}, {4, 1}, {7, 1}, {8, 2}, {10, 2}, {11, 3},
	}
	for _, c := range cases {
		if got := intervalIndex(elems, c.id); got != c.want {
			t.Errorf("intervalIndex(%v,%d)=%d want %d", elems, c.id, got, c.want)
		}
	}
}

func TestQuickRandomSplaySequencesKeepInvariants(t *testing.T) {
	// Property: any sequence of splays on any valid random tree keeps every
	// invariant. testing/quick drives the seeds.
	f := func(seed int64, kRaw uint8, ops []uint16) bool {
		k := 2 + int(kRaw%9) // 2..10
		n := 60
		tr, err := NewRandom(n, k, seed)
		if err != nil {
			return false
		}
		if len(ops) > 80 {
			ops = ops[:80]
		}
		for _, op := range ops {
			x := tr.NodeByID(1 + int(op)%n)
			tr.SplayUntilParent(x, nil)
		}
		return tr.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSplayToAncestorKeepsInvariants(t *testing.T) {
	f := func(seed int64, kRaw uint8, pairs []uint32) bool {
		k := 2 + int(kRaw%5)
		n := 50
		tr, err := NewRandom(n, k, seed)
		if err != nil {
			return false
		}
		if len(pairs) > 60 {
			pairs = pairs[:60]
		}
		for _, pr := range pairs {
			u := 1 + int(pr%uint32(n))
			v := 1 + int((pr/64)%uint32(n))
			a, b := tr.NodeByID(u), tr.NodeByID(v)
			w := tr.LCA(a, b)
			tr.SplayUntilParent(a, w.Parent())
			if b != a {
				tr.SplayUntilParent(b, a)
				if b.Parent() != a {
					return false
				}
			}
			if tr.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSplayPreservesSubtreeIntervalAtParent(t *testing.T) {
	// After splaying x to the top of the subtree hanging at a fixed slot of
	// stop, that slot must still cover exactly the same id interval.
	tr := MustNewBalanced(121, 3)
	root := tr.Root()
	slot := -1
	var sub *Node
	for i := 0; i < root.NumSlots(); i++ {
		if c := root.Child(i); c != nil {
			slot, sub = i, c
			break
		}
	}
	// Collect ids currently under that slot.
	before := map[int]bool{}
	var collect func(nd *Node)
	collect = func(nd *Node) {
		before[nd.ID()] = true
		for i := 0; i < nd.NumSlots(); i++ {
			if c := nd.Child(i); c != nil {
				collect(c)
			}
		}
	}
	collect(sub)
	// Splay a deep node of that subtree to the subtree root.
	var x *Node
	for id := 1; id <= 121; id++ {
		nd := tr.NodeByID(id)
		if before[id] && tr.Depth(nd) >= 3 {
			x = nd
			break
		}
	}
	tr.SplayUntilParent(x, root)
	after := map[int]bool{}
	collect = func(nd *Node) {
		after[nd.ID()] = true
		for i := 0; i < nd.NumSlots(); i++ {
			if c := nd.Child(i); c != nil {
				collect(c)
			}
		}
	}
	collect(root.Child(slot))
	if len(before) != len(after) {
		t.Fatalf("subtree size changed: %d -> %d", len(before), len(after))
	}
	for id := range before {
		if !after[id] {
			t.Fatalf("id %d left its subtree during a bounded splay", id)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}
