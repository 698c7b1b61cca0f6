package core

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestNewBalancedValid(t *testing.T) {
	for _, k := range []int{2, 3, 4, 5, 7, 10} {
		for _, n := range []int{1, 2, 3, 4, 5, 7, 10, 31, 64, 100, 255, 1000} {
			tr, err := NewBalanced(n, k)
			if err != nil {
				t.Fatalf("NewBalanced(%d,%d): %v", n, k, err)
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("NewBalanced(%d,%d) invalid: %v", n, k, err)
			}
		}
	}
}

func TestNewBalancedHeight(t *testing.T) {
	// A weakly-complete k-ary tree of n nodes has height ⌈log_k(...)⌉; check
	// the exact full-tree cases.
	cases := []struct{ n, k, h int }{
		{1, 2, 0}, {3, 2, 1}, {7, 2, 2}, {15, 2, 3}, {31, 2, 4},
		{1, 3, 0}, {4, 3, 1}, {13, 3, 2}, {40, 3, 3},
		{1, 4, 0}, {5, 4, 1}, {21, 4, 2},
	}
	for _, c := range cases {
		tr := MustNewBalanced(c.n, c.k)
		if got := tr.Height(); got != c.h {
			t.Errorf("height of full %d-ary tree on %d nodes = %d, want %d", c.k, c.n, got, c.h)
		}
	}
}

func TestNewBalancedWeaklyComplete(t *testing.T) {
	// All levels above the last must be completely filled.
	for _, k := range []int{2, 3, 5} {
		for _, n := range []int{6, 17, 50, 123} {
			tr := MustNewBalanced(n, k)
			h := tr.Height()
			perLevel := make([]int, h+1)
			var walk func(nd *Node, d int)
			walk = func(nd *Node, d int) {
				perLevel[d]++
				for i := 0; i < nd.NumSlots(); i++ {
					if ch := nd.Child(i); ch != nil {
						walk(ch, d+1)
					}
				}
			}
			walk(tr.Root(), 0)
			want := 1
			for d := 0; d < h; d++ {
				if perLevel[d] != want {
					t.Fatalf("n=%d k=%d: level %d has %d nodes, want %d", n, k, d, perLevel[d], want)
				}
				want *= k
			}
		}
	}
}

func TestNewPath(t *testing.T) {
	for _, k := range []int{2, 4} {
		tr, err := NewPath(10, k)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		if got := tr.DistanceID(1, 10); got != 9 {
			t.Errorf("path distance 1..10 = %d, want 9", got)
		}
		if got := tr.Height(); got != 9 {
			t.Errorf("path height = %d, want 9", got)
		}
	}
}

func TestNewRandomValid(t *testing.T) {
	for _, k := range []int{2, 3, 6} {
		for seed := int64(0); seed < 20; seed++ {
			tr, err := NewRandom(40, k, seed)
			if err != nil {
				t.Fatalf("NewRandom(40,%d,%d): %v", k, seed, err)
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("NewRandom(40,%d,%d) invalid: %v", k, seed, err)
			}
		}
	}
}

func TestDistanceSymmetricAndTriangle(t *testing.T) {
	tr := MustNewBalanced(60, 3)
	for u := 1; u <= 60; u += 7 {
		for v := 1; v <= 60; v += 5 {
			duv, dvu := tr.DistanceID(u, v), tr.DistanceID(v, u)
			if duv != dvu {
				t.Fatalf("distance not symmetric: d(%d,%d)=%d d(%d,%d)=%d", u, v, duv, v, u, dvu)
			}
			for w := 1; w <= 60; w += 11 {
				if duv > tr.DistanceID(u, w)+tr.DistanceID(w, v) {
					t.Fatalf("triangle inequality violated at (%d,%d,%d)", u, v, w)
				}
			}
		}
	}
}

func TestDistanceZeroAndAdjacent(t *testing.T) {
	tr := MustNewBalanced(20, 2)
	if got := tr.DistanceID(5, 5); got != 0 {
		t.Errorf("d(5,5)=%d, want 0", got)
	}
	root := tr.Root()
	for i := 0; i < root.NumSlots(); i++ {
		if ch := root.Child(i); ch != nil {
			if got := tr.Distance(root, ch); got != 1 {
				t.Errorf("root-child distance = %d, want 1", got)
			}
		}
	}
}

func TestLCA(t *testing.T) {
	tr := MustNewBalanced(31, 2) // full binary tree
	// In a full BST on 1..31, LCA(1, 31) is the root.
	if got := tr.LCA(tr.NodeByID(1), tr.NodeByID(31)); got != tr.Root() {
		t.Errorf("LCA(1,31) = %d, want root %d", got.ID(), tr.Root().ID())
	}
	// LCA of a node with itself is itself.
	nd := tr.NodeByID(7)
	if got := tr.LCA(nd, nd); got != nd {
		t.Errorf("LCA(x,x) != x")
	}
	// LCA of an ancestor-descendant pair is the ancestor.
	anc := tr.Root()
	ch := anc.Child(0)
	for ch != nil && !ch.IsLeaf() {
		if got := tr.LCA(anc, ch); got != anc {
			t.Fatalf("LCA(ancestor,descendant) wrong")
		}
		next := ch.Child(0)
		if next == nil {
			break
		}
		ch = next
	}
}

func TestRoutePathMatchesDistance(t *testing.T) {
	tr := MustNewBalanced(64, 4)
	for u := 1; u <= 64; u += 3 {
		for v := 1; v <= 64; v += 7 {
			p := tr.RoutePath(u, v)
			if len(p)-1 != tr.DistanceID(u, v) {
				t.Fatalf("route path length %d != distance %d for (%d,%d)", len(p)-1, tr.DistanceID(u, v), u, v)
			}
			if p[0] != u || p[len(p)-1] != v {
				t.Fatalf("route path endpoints wrong: %v for (%d,%d)", p, u, v)
			}
		}
	}
}

func TestNextHopFollowsRoutePath(t *testing.T) {
	tr := MustNewBalanced(50, 3)
	for u := 1; u <= 50; u += 4 {
		for v := 1; v <= 50; v += 6 {
			if u == v {
				continue
			}
			at := tr.NodeByID(u)
			hops := 0
			for at.ID() != v {
				next, err := tr.NextHop(at, v)
				if err != nil {
					t.Fatalf("NextHop(%d→%d): %v", at.ID(), v, err)
				}
				at = next
				hops++
				if hops > tr.N() {
					t.Fatalf("NextHop loops routing %d→%d", u, v)
				}
			}
			if hops != tr.DistanceID(u, v) {
				t.Fatalf("NextHop took %d hops for (%d,%d), distance is %d", hops, u, v, tr.DistanceID(u, v))
			}
		}
	}
}

func TestTotalPairDistanceUniformMatchesBruteForce(t *testing.T) {
	for _, k := range []int{2, 3, 4} {
		for _, n := range []int{1, 2, 8, 25} {
			tr := MustNewBalanced(n, k)
			var brute int64
			for u := 1; u <= n; u++ {
				for v := u + 1; v <= n; v++ {
					brute += int64(tr.DistanceID(u, v))
				}
			}
			if got := tr.TotalPairDistanceUniform(); got != brute {
				t.Errorf("n=%d k=%d: TotalPairDistanceUniform=%d brute=%d", n, k, got, brute)
			}
		}
	}
}

func TestWeaklyCompleteSizes(t *testing.T) {
	cases := []struct {
		c, k int
		want []int
	}{
		{0, 3, []int{0, 0, 0}},
		{3, 3, []int{1, 1, 1}},
		{4, 3, []int{2, 1, 1}},
		{6, 3, []int{4, 1, 1}},
		{12, 3, []int{4, 4, 4}},
		{13, 3, []int{5, 4, 4}},
		{2, 2, []int{1, 1}},
		{5, 2, []int{3, 2}},
		{6, 2, []int{3, 3}},
	}
	for _, c := range cases {
		got := WeaklyCompleteSizes(c.c, c.k)
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("WeaklyCompleteSizes(%d,%d)=%v want %v", c.c, c.k, got, c.want)
				break
			}
		}
	}
}

func TestBuildRejectsBadSpecs(t *testing.T) {
	cases := []struct {
		name string
		k    int
		spec *Spec
		want string // the rejection the case must reach
	}{
		{"nil spec", 2, nil, "nil spec"},
		{"arity below 2", 1, &Spec{ID: 1}, "arity"},
		{"id out of range", 2, &Spec{ID: 5}, "out of range"},
		{"dup id", 2, &Spec{ID: 1, Thresholds: []int{1}, Children: []*Spec{{ID: 1}, {ID: 2}}}, "duplicate id"},
		{"id out of slot", 2, &Spec{ID: 2, Thresholds: []int{1}, Children: []*Spec{nil, {ID: 1}}}, "outside its slot"},
		{"too many thresholds", 2, &Spec{ID: 2, Thresholds: []int{1, 2}, Children: []*Spec{{ID: 1}, nil, {ID: 3}}}, "routing elements"},
		{"slot count mismatch", 3, &Spec{ID: 1, Thresholds: []int{1}, Children: []*Spec{nil}}, "child slots"},
		{"non-increasing thresholds", 3, &Spec{ID: 2, Thresholds: []int{2, 2}, Children: []*Spec{{ID: 1}, nil, {ID: 3}}}, "not strictly increasing"},
		{"threshold beyond its interval", 3, &Spec{ID: 2, Thresholds: []int{2, 5}, Children: []*Spec{{ID: 1}, nil, {ID: 3}}}, "exceeds its interval"},
		// One threshold at k=3 needs one pad cut below id 2, but slot 0
		// holds ids on both sides of it: its root, id 1, takes the part
		// below the pad, which id 3 lies outside of.
		{"padding splits a child slot", 3, &Spec{ID: 2, Thresholds: []int{3}, Children: []*Spec{
			{ID: 1, Thresholds: []int{1}, Children: []*Spec{nil, {ID: 3}}}, nil}}, "id 3 outside its slot"},
		// The last threshold sits at the slot's upper end, leaving the
		// open-ended last slot empty.
		{"child in an empty slot", 2, &Spec{ID: 1, Thresholds: []int{2}, Children: []*Spec{nil, {ID: 2}}}, "empty slot"},
	}
	for _, c := range cases {
		_, err := Build(c.k, c.spec)
		if err == nil {
			t.Errorf("%s: Build accepted an invalid spec", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Build rejected it with %q, want the %q rejection", c.name, err, c.want)
		}
	}
}

// TestBuildPaddedPathLinear: on a left path at k=3 every node has one
// threshold, its own id, so it is padded below the id, and its child
// sits in the slot the pad splits. Build puts the child on the side its
// own id lies on, so it runs in time linear in the height; walking each
// such child's subtree for its id range took 3.9 s at 20 000 nodes, and
// would take about 100 s at this size.
func TestBuildPaddedPathLinear(t *testing.T) {
	const n, k = 100_000, 3
	var spec *Spec
	for id := 1; id <= n; id++ {
		spec = &Spec{ID: id, Thresholds: []int{id}, Children: []*Spec{spec, nil}}
	}
	start := time.Now()
	tr, err := Build(k, spec)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	// Validate searches for every id, quadratic on a path: check the
	// links instead.
	if tr.root != n {
		t.Fatalf("root %d, want %d", tr.root, n)
	}
	for id := 1; id < n; id++ {
		if p := tr.parent[id]; p != int32(id+1) {
			t.Fatalf("node %d hangs under %d, want %d", id, p, id+1)
		}
	}
	if elapsed > 10*time.Second {
		t.Errorf("Build of a %d-node padded path took %v, want well under 10 s", n, elapsed)
	}
}

// dirtyArena returns a random n-node k-ary tree that has been splayed
// with edge tracking on and the leftmost block policy set: an arena
// holding everything Arena must reset.
func dirtyArena(t *testing.T, n, k int, seed int64) *Tree {
	t.Helper()
	tr, err := NewRandom(n, k, seed)
	if err != nil {
		t.Fatal(err)
	}
	tr.SetTrackEdges(true)
	tr.SetBlockPolicy(BlockLeftmost)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 3*n; i++ {
		tr.SplayUntilParent(tr.NodeByID(1+rng.Intn(n)), nil)
	}
	return tr
}

// TestArenaResetsUsedArena: a construction written into a used arena
// (splayed, with edge tracking and the leftmost block policy on) yields
// the tree it writes into a new one, with zero counters and default
// settings, and readying the same arena again allocates nothing. An
// arena of another arity or node count is refused.
func TestArenaResetsUsedArena(t *testing.T) {
	const n = 300
	for _, k := range []int{2, 3, 4, 8} {
		want := MustNewBalanced(n, k)
		dst := dirtyArena(t, n, k, int64(k))
		if dst.Rotations() == 0 || dst.EdgeChanges() == 0 {
			t.Fatal("the dirty arena was never splayed; the test is vacuous")
		}
		got, root, err := Arena(dst, n, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if got != dst {
			t.Fatalf("k=%d: Arena returned a new tree, not its destination", k)
		}
		got.PlaceBalanced(root, 1, n)
		if err := got.Validate(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !sameArena(got, want) {
			t.Fatalf("k=%d: the tree written into a used arena differs from NewBalanced's", k)
		}
		if got.Rotations() != 0 || got.EdgeChanges() != 0 || got.trackEdges || got.blockPolicy != BlockCentered {
			t.Fatalf("k=%d: rotations %d, edge changes %d, tracking %v, block policy %v; want a new tree's",
				k, got.Rotations(), got.EdgeChanges(), got.trackEdges, got.blockPolicy)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			if _, _, err := Arena(dst, n, k); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("k=%d: readying a used arena made %.0f allocs, want 0", k, allocs)
		}
	}
	if _, _, err := Arena(MustNewBalanced(7, 3), 7, 4); err == nil {
		t.Error("Arena readied a 3-ary arena for a 4-ary tree")
	}
	if _, _, err := Arena(MustNewBalanced(7, 3), 8, 3); err == nil {
		t.Error("Arena readied a 7-node arena for 8 nodes")
	}
}

// TestBuildPadsForBoundaryThreshold: node 3 repeats as its last threshold
// the parent threshold that bounds its interval. Build pads for that
// threshold instead, since a rotation's merge cannot split a repeated
// element, and the tree stays valid while every node is splayed to the
// root in turn.
func TestBuildPadsForBoundaryThreshold(t *testing.T) {
	spec := &Spec{ID: 4, Thresholds: []int{3}, Children: []*Spec{
		{ID: 3, Thresholds: []int{1, 3}, Children: []*Spec{{ID: 1}, {ID: 2}, nil}},
		{ID: 5},
	}}
	tr, err := Build(3, spec)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tr.NodeByID(3).RoutingArray(), []int{3, 8}; !reflect.DeepEqual(got, want) {
		t.Fatalf("node 3 routing array %v, want %v: the bound 9 dropped and a pad cut below id 3 added", got, want)
	}
	for id := 1; id <= 5; id++ {
		tr.SplayUntilParent(tr.NodeByID(id), nil)
		if err := tr.Validate(); err != nil {
			t.Fatalf("after splaying %d to the root: %v", id, err)
		}
	}
	spec.Children[0].Children[2] = &Spec{ID: 6}
	if _, err := Build(3, spec); err == nil || !strings.Contains(err.Error(), "empty slot") {
		t.Errorf("a child above the repeated bound: got %v, want the empty-slot rejection", err)
	}
}

func TestBuildAcceptsLeafWithNilChildren(t *testing.T) {
	tr, err := Build(3, &Spec{ID: 2, Thresholds: []int{2}, Children: []*Spec{{ID: 1}, {ID: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestBuildAllocsConstantInN pins the claim of Build's doc comment: the
// arena is a fixed set of flat slices, so materializing a spec costs the
// same number of allocations at any node count — with or without padding,
// and with leaves that leave Children nil (randomSpec's) or spell out
// their empty slot (BalancedSpec's). AllocsPerRun truncates its average,
// so over 50 runs a few allocations made elsewhere in the process while
// it measures cannot shift the count, and one more per Build still does.
func TestBuildAllocsConstantInN(t *testing.T) {
	for _, k := range []int{2, 4, 32} {
		for _, shape := range []string{"balanced", "random"} {
			var allocs [2]float64
			for i, n := range []int{255, 4095} {
				spec := BalancedSpec(1, n, k)
				if shape == "random" {
					spec = randomSpec(1, n, k, rand.New(rand.NewSource(int64(n))))
				}
				allocs[i] = testing.AllocsPerRun(50, func() {
					if _, err := Build(k, spec); err != nil {
						t.Fatal(err)
					}
				})
			}
			if allocs[0] != allocs[1] {
				t.Errorf("k=%d %s: Build made %.0f allocs at n=255 but %.0f at n=4095, want the same count",
					k, shape, allocs[0], allocs[1])
			}
		}
	}
}

// TestFromSnapshotAllocsConstantInN is TestBuildAllocsConstantInN for
// FromSnapshot, whose validation used to allocate a search path per
// node: a restore now costs the same number of allocations at any node
// count and shape.
func TestFromSnapshotAllocsConstantInN(t *testing.T) {
	for _, k := range []int{2, 4, 32} {
		for _, shape := range []string{"balanced", "random"} {
			var allocs [2]float64
			for i, n := range []int{255, 4095} {
				tr := MustNewBalanced(n, k)
				if shape == "random" {
					tr = MustBuild(k, randomSpec(1, n, k, rand.New(rand.NewSource(int64(n)))))
				}
				snap := tr.Snapshot()
				allocs[i] = testing.AllocsPerRun(10, func() {
					if _, err := FromSnapshot(snap); err != nil {
						t.Fatal(err)
					}
				})
			}
			if allocs[0] != allocs[1] {
				t.Errorf("k=%d %s: FromSnapshot made %.0f allocs at n=255 but %.0f at n=4095, want the same count",
					k, shape, allocs[0], allocs[1])
			}
		}
	}
}

func TestParents(t *testing.T) {
	tr := MustNewBalanced(7, 2)
	par := tr.Parents()
	if par[tr.Root().ID()] != 0 {
		t.Errorf("root parent = %d, want 0", par[tr.Root().ID()])
	}
	roots := 0
	for id := 1; id <= 7; id++ {
		if par[id] == 0 {
			roots++
		} else if tr.NodeByID(id).Parent().ID() != par[id] {
			t.Errorf("Parents()[%d] inconsistent", id)
		}
	}
	if roots != 1 {
		t.Errorf("found %d roots, want 1", roots)
	}
}

func TestAverageDepthBalancedVsPath(t *testing.T) {
	bal := MustNewBalanced(63, 2)
	path, _ := NewPath(63, 2)
	if bal.AverageDepth() >= path.AverageDepth() {
		t.Errorf("balanced tree average depth %.2f should beat path %.2f",
			bal.AverageDepth(), path.AverageDepth())
	}
}

func TestHigherArityShortensTree(t *testing.T) {
	// The motivation of the paper: with increasing k, route lengths drop.
	n := 500
	prev := MustNewBalanced(n, 2).TotalPairDistanceUniform()
	for k := 3; k <= 10; k++ {
		cur := MustNewBalanced(n, k).TotalPairDistanceUniform()
		if cur >= prev {
			t.Errorf("k=%d full tree total distance %d not below k=%d's %d", k, cur, k-1, prev)
		}
		prev = cur
	}
}
