package statictree

import (
	"fmt"

	"github.com/ksan-net/ksan/internal/workload"
)

// tri indexes the upper triangle {(i,j) : 1 ≤ i ≤ j ≤ n} of an n×n matrix
// into a dense slice of n(n+1)/2 entries, row-major (at: row i contiguous
// in j) or column-major (col: column j contiguous in i). The DP tables and
// the boundary-traffic matrix only ever address i ≤ j, so the triangular
// layout halves their footprint versus the square [][]int64 it replaces.
// The Solver's min-plus loops read a row of one plane against a column of
// another, so it keeps the two planes it reads by column in both orders.
type tri struct {
	n   int
	off []int32 // off[i] = flat index of (i,i); off[n+1] = n(n+1)/2
}

func newTri(n int) tri {
	off := make([]int32, n+2)
	for i := 1; i <= n+1; i++ {
		off[i] = off[i-1] + int32(n-i+2)
	}
	// off[0] is unused padding so rows are 1-based like node ids; shift so
	// off[1] = 0.
	base := off[1]
	for i := range off {
		off[i] -= base
	}
	return tri{n: n, off: off}
}

// at maps (i,j), 1 ≤ i ≤ j ≤ n, to its flat index.
func (t tri) at(i, j int) int {
	return int(t.off[i]) + (j - i)
}

// col maps (i,j), 1 ≤ i ≤ j ≤ n, to its column-major flat index: columns
// 1..j-1 hold j(j-1)/2 entries before (1,j).
func (t tri) col(i, j int) int {
	return j*(j-1)/2 + i - 1
}

// size is the number of stored entries, n(n+1)/2.
func (t tri) size() int {
	return int(t.off[t.n+1])
}

// segmentCosts precomputes, for a demand on n nodes, the boundary-traffic
// matrix W of the paper's dynamic program: W[i][j] is the number of
// requests with exactly one endpoint inside the id segment [i,j]. The
// paper's proof computes W in O(n³) (Claim 16); two-dimensional prefix
// sums bring this to O(n²), which tests cross-check against the naive
// definition. The matrix is immutable once built and shared by every
// arity a Solver answers, so it is computed once per demand.
type segmentCosts struct {
	t tri
	w []int64 // w[t.at(i,j)] for 1 ≤ i ≤ j ≤ n
}

func newSegmentCosts(d *workload.Demand) (*segmentCosts, error) {
	if err := checkDemand(d); err != nil {
		return nil, err
	}
	n := d.N
	// p[i*(n+1)+j] = Σ D[u][v] for u ≤ i, v ≤ j (1-based; row/col 0 zero).
	stride := n + 1
	p := make([]int64, stride*stride)
	for _, pc := range d.Pairs {
		p[pc.Src*stride+pc.Dst] += pc.Count
	}
	for i := 1; i <= n; i++ {
		row, prev := p[i*stride:(i+1)*stride], p[(i-1)*stride:i*stride]
		for j := 1; j <= n; j++ {
			row[j] += prev[j] + row[j-1] - prev[j-1]
		}
	}
	rect := func(u1, u2, v1, v2 int) int64 {
		if u1 > u2 || v1 > v2 {
			return 0
		}
		return p[u2*stride+v2] - p[(u1-1)*stride+v2] - p[u2*stride+v1-1] + p[(u1-1)*stride+v1-1]
	}
	sc := &segmentCosts{t: newTri(n)}
	sc.w = make([]int64, sc.t.size())
	for i := 1; i <= n; i++ {
		row := sc.w[sc.t.at(i, i):]
		for j := i; j <= n; j++ {
			row[j-i] = rect(i, j, 1, n) + rect(1, n, i, j) - 2*rect(i, j, i, j)
		}
	}
	return sc, nil
}

// checkDemand rejects a demand the builders cannot index: one without
// nodes, or one with a pair whose endpoint lies outside 1..N.
func checkDemand(d *workload.Demand) error {
	if d.N < 1 {
		return fmt.Errorf("statictree: empty demand")
	}
	for _, pc := range d.Pairs {
		if pc.Src < 1 || pc.Src > d.N || pc.Dst < 1 || pc.Dst > d.N {
			return fmt.Errorf("statictree: demand pair %d→%d outside nodes 1..%d", pc.Src, pc.Dst, d.N)
		}
	}
	return nil
}

// W returns the boundary traffic of segment [i,j]; zero for empty segments.
func (sc *segmentCosts) W(i, j int) int64 {
	if i > j {
		return 0
	}
	return sc.w[sc.t.at(i, j)]
}
