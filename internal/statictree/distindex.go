package statictree

import (
	"math/bits"

	"github.com/ksan-net/ksan/internal/core"
)

// DistIndex is a constant-time distance oracle over a static topology: an
// Euler tour of the tree with a sparse-table RMQ over tour depths, the
// textbook LCA reduction. Building costs O(n log n) once; each distance
// query is then a handful of array lookups instead of the three root-ward
// pointer walks core.Tree.Distance performs. It is the static-stretch
// oracle of policy nets (and the whole serve path of a frozen one), and it
// is only sound while the wrapped tree does not change.
type DistIndex struct {
	depth []int32 // depth[id] for id in 1..n
	first []int32 // first[id]: first occurrence of id in the Euler tour
	euler []int32 // node ids in Euler-tour order (2n-1 entries)
	// table[j][i] is the tour position with minimum depth in the window
	// [i, i+2^j); table[0] is the tour positions themselves.
	table [][]int32
}

// NewDistIndex builds the oracle from a tree rooted at t.Root().
func NewDistIndex(t *core.Tree) *DistIndex {
	ix := &DistIndex{}
	ix.Rebuild(t)
	return ix
}

// Rebuild re-indexes the oracle over the tree's current topology, reusing
// every backing array the previous build left behind. Rebuilding over a
// same-size tree allocates nothing — which is what lets a self-adjusting
// net keep one oracle alive across static stretches instead of paying an
// O(n log n) allocation burst each time a stretch begins (policy.Net does
// exactly that). The zero value of DistIndex is a valid Rebuild target.
func (ix *DistIndex) Rebuild(t *core.Tree) {
	n := t.N()
	ix.depth = growRow(ix.depth, n+1)
	ix.first = growRow(ix.first, n+1)
	if cap(ix.euler) < 2*n-1 {
		ix.euler = make([]int32, 0, 2*n-1)
	}
	ix.euler = ix.euler[:0]
	ix.tour(t.Root(), 0)
	ix.buildRMQ()
}

// tour is a named method rather than a closure so that recursive rebuilds
// stay allocation-free (a recursive closure forces its own heap funcval).
func (ix *DistIndex) tour(nd *core.Node, depth int32) {
	id := int32(nd.ID())
	ix.first[id] = int32(len(ix.euler))
	ix.depth[id] = depth
	ix.euler = append(ix.euler, id)
	for i := 0; i < nd.NumSlots(); i++ {
		if c := nd.Child(i); c != nil {
			ix.tour(c, depth+1)
			ix.euler = append(ix.euler, id)
		}
	}
}

func (ix *DistIndex) buildRMQ() {
	m := len(ix.euler)
	levels := bits.Len(uint(m))
	if cap(ix.table) < levels {
		ix.table = make([][]int32, levels)
	}
	ix.table = ix.table[:cap(ix.table)][:levels]
	base := growRow(ix.table[0], m)
	ix.table[0] = base
	for i := range base {
		base[i] = int32(i)
	}
	for j := 1; j < levels; j++ {
		width := 1 << j
		prev := ix.table[j-1]
		row := growRow(ix.table[j], m-width+1)
		for i := range row {
			a, b := prev[i], prev[i+width/2]
			if ix.tourDepth(a) <= ix.tourDepth(b) {
				row[i] = a
			} else {
				row[i] = b
			}
		}
		ix.table[j] = row
	}
}

// growRow resizes a reusable row to exactly n entries, reallocating only
// when the old capacity is insufficient. Contents are unspecified.
func growRow(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func (ix *DistIndex) tourDepth(pos int32) int32 { return ix.depth[ix.euler[pos]] }

// Dist returns the path length in edges between nodes u and v.
func (ix *DistIndex) Dist(u, v int) int64 {
	if u == v {
		return 0
	}
	l, r := ix.first[u], ix.first[v]
	if l > r {
		l, r = r, l
	}
	j := bits.Len(uint(r-l+1)) - 1
	a, b := ix.table[j][l], ix.table[j][r-int32(1<<j)+1]
	lcaDepth := ix.tourDepth(a)
	if d := ix.tourDepth(b); d < lcaDepth {
		lcaDepth = d
	}
	return int64(ix.depth[u] + ix.depth[v] - 2*lcaDepth)
}
