// Package centroidnet implements the (k+1)-SplayNet of Section 4.2 of the
// paper: the online self-adjusting companion of the static centroid tree.
//
// The topology fixes two centroid nodes: c1 is the root and has k−1 small
// k-ary SplayNet subtrees plus c2 as children; c2 has k larger k-ary
// SplayNet subtrees (Figure 8; Figure 7 shows the k=2 case, 3-SplayNet).
// The 2k−1 subtree node sets never change and c1/c2 never move. A request
// within one subtree is served exactly as in k-ary SplayNet; a request
// across subtrees splays both endpoints to their subtree roots and routes
// via c1/c2.
//
// Since the policy refactor the network is the canonical composition
//
//	centroid topology × (policy.Always, centroid splay)
//
// where the centroid splay is this package's region-aware Adjuster (the
// repertoire is a property of the topology, so it lives here, not in
// internal/policy). Compose builds the same topology under any trigger
// (periodic or lazy centroid adjustment, frozen centroid topology).
package centroidnet

import (
	"fmt"

	"github.com/ksan-net/ksan/internal/core"
	"github.com/ksan-net/ksan/internal/policy"
)

// Net is a (k+1)-SplayNet on nodes 1..n: a policy composition over the
// fixed-region centroid topology.
type Net struct {
	*policy.Net
	k       int
	c1, c2  int
	regions []region
}

// region is one of the 2k−1 fixed subtrees: ids [lo,hi] hang below the
// anchor centroid (c1 or c2).
type region struct {
	lo, hi int
	anchor int // centroid id the subtree root attaches to
}

// New constructs a (k+1)-SplayNet. The id layout is: the k−1 small
// subtrees cover [1..s], c1 = s+1, the k large subtrees cover [s+2..n−1],
// and c2 = n, where s ≈ (n−2)/(k+1) following the paper's proportions.
// n must be at least 3 (two centroids plus at least one subtree node).
func New(n, k int) (*Net, error) {
	return Compose(fmt.Sprintf("%d-SplayNet", k+1), n, k, policy.Always())
}

// Compose builds the centroid topology under an arbitrary trigger; the
// adjuster is always this package's region-aware centroid splay (with
// policy.Never it simply never runs, freezing the topology).
func Compose(label string, n, k int, trig policy.Trigger) (*Net, error) {
	if err := core.CheckIDRange(n, k); err != nil {
		return nil, fmt.Errorf("centroidnet: %w", err)
	}
	if n < 3 {
		return nil, fmt.Errorf("centroidnet: need at least 3 nodes, got %d", n)
	}
	smallTotal := (n - 2) / (k + 1)
	c1 := smallTotal + 1
	c2 := n

	net := &Net{k: k, c1: c1, c2: c2}
	aParts := evenParts(1, smallTotal, k-1)
	bParts := evenParts(smallTotal+2, n-1, k)
	for _, p := range bParts {
		net.regions = append(net.regions, region{lo: p[0], hi: p[1], anchor: c2})
	}
	for _, p := range aParts {
		net.regions = append(net.regions, region{lo: p[0], hi: p[1], anchor: c1})
	}

	// c1 is the root: the k−1 small subtrees, then c2's subtree above
	// c1's own id. c2 holds the k large subtrees, its own id n in the
	// last one's slot. Each subtree is weakly complete.
	t, root, err := core.Arena(nil, n, k)
	if err != nil {
		return nil, fmt.Errorf("centroidnet: %w", err)
	}
	ths := make([]int, 0, k)
	at1 := t.Place(root, c1, append(innerEnds(ths, aParts), c1))
	for i, p := range aParts {
		t.PlaceBalanced(at1.Child(i), p[0], p[1])
	}
	at2 := t.Place(at1.Child(max(len(aParts), 1)), c2, innerEnds(ths, bParts))
	for i, p := range bParts {
		t.PlaceBalanced(at2.Child(i), p[0], p[1])
	}
	p, err := policy.New(label, t, trig, adjuster{net})
	if err != nil {
		return nil, fmt.Errorf("centroidnet: %w", err)
	}
	net.Net = p
	return net, nil
}

// MustNew is New for known-good parameters.
func MustNew(n, k int) *Net {
	net, err := New(n, k)
	if err != nil {
		panic(err)
	}
	return net
}

// innerEnds returns buf[:0] with the last id of every part but the last:
// the routing elements between the parts' slots.
func innerEnds(buf []int, parts [][2]int) []int {
	buf = buf[:0]
	for i := 1; i < len(parts); i++ {
		buf = append(buf, parts[i-1][1])
	}
	return buf
}

// evenParts splits [lo,hi] into up to want non-empty contiguous pieces of
// near-equal size (fewer when the interval is too small; none when empty).
func evenParts(lo, hi, want int) [][2]int {
	m := hi - lo + 1
	if m <= 0 || want < 1 {
		return nil
	}
	if want > m {
		want = m
	}
	parts := make([][2]int, 0, want)
	start := lo
	for p := 0; p < want; p++ {
		size := (m - (start - lo) + (want - p - 1)) / (want - p)
		end := start + size - 1
		parts = append(parts, [2]int{start, end})
		start = end + 1
	}
	return parts
}

// Centroids returns the ids of the two fixed centroid nodes (c1, c2).
func (net *Net) Centroids() (int, int) { return net.c1, net.c2 }

// regionOf returns the region index of id, or -1 for the centroids.
func (net *Net) regionOf(id int) int {
	if id == net.c1 || id == net.c2 {
		return -1
	}
	for i, r := range net.regions {
		if id >= r.lo && id <= r.hi {
			return i
		}
	}
	return -1
}

// adjuster is the centroid topology's repertoire as a policy.Adjuster:
// requests within one subtree splay to their LCA as in k-ary SplayNet;
// requests across subtrees (or touching a centroid) splay each
// non-centroid endpoint to its subtree root and route via the fixed
// centroids. c1 and c2 never move.
type adjuster struct{ net *Net }

func (adjuster) Name() string      { return "centroid-splay" }
func (adjuster) NeedsWindow() bool { return false }
func (adjuster) NeedsTree() bool   { return true }

func (a adjuster) Adjust(ctx *policy.Ctx) int64 {
	net := a.net
	t := ctx.Tree
	before := t.Rotations()
	ru, rv := net.regionOf(ctx.U), net.regionOf(ctx.V)
	switch {
	case ru == -1 && rv == -1:
		// centroid to centroid: static.
	case ru == rv:
		t.SplayUntilParent(ctx.A, ctx.W.Parent())
		t.SplayUntilParent(ctx.B, ctx.A)
	default:
		if ru != -1 {
			net.splayToRegionRoot(ctx.A, ru)
		}
		if rv != -1 {
			net.splayToRegionRoot(ctx.B, rv)
		}
	}
	return t.Rotations() - before
}

func (net *Net) splayToRegionRoot(x *core.Node, r int) {
	t := net.Tree()
	anchor := t.NodeByID(net.regions[r].anchor)
	if x.Parent() == anchor {
		return
	}
	t.SplayUntilParent(x, anchor)
}

// CheckInvariants verifies the structural guarantees the heuristic relies
// on: the tree is a valid k-ary search tree, c1 is the root, c2 is a child
// of c1, and every region's id set still hangs (entire and alone) below its
// anchor centroid. Tests call this after serving traces.
func (net *Net) CheckInvariants() error {
	t := net.Tree()
	if err := t.Validate(); err != nil {
		return err
	}
	if t.Root().ID() != net.c1 {
		return fmt.Errorf("centroidnet: root is %d, want c1=%d", t.Root().ID(), net.c1)
	}
	if t.NodeByID(net.c2).Parent() == nil || t.NodeByID(net.c2).Parent().ID() != net.c1 {
		return fmt.Errorf("centroidnet: c2=%d is not a child of c1", net.c2)
	}
	for i, r := range net.regions {
		anchor := t.NodeByID(r.anchor)
		for id := r.lo; id <= r.hi; id++ {
			nd := t.NodeByID(id)
			// Ascend to the child-of-anchor ancestor.
			for nd.Parent() != nil && nd.Parent() != anchor {
				nd = nd.Parent()
			}
			if nd.Parent() != anchor {
				return fmt.Errorf("centroidnet: node %d escaped region %d", id, i)
			}
			// The subtree root must cover this region only: its own id must
			// be inside [lo,hi].
			if nd.ID() < r.lo || nd.ID() > r.hi {
				return fmt.Errorf("centroidnet: region %d root %d outside [%d,%d]", i, nd.ID(), r.lo, r.hi)
			}
		}
	}
	return nil
}
