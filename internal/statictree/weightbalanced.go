package statictree

import (
	"fmt"
	"slices"

	"github.com/ksan-net/ksan/internal/core"
	"github.com/ksan-net/ksan/internal/workload"
)

// WeightBalanced builds a demand-aware k-ary search tree in O(n·k·log n) by
// Mehlhorn-style weighted bisection: each segment picks the root at its
// weighted median (point weight = total traffic at the node) and splits the
// remainder into up to k child segments of near-equal weight. A demand
// pair naming an id outside 1..N is an error.
//
// This is an extension beyond the paper, motivated by Table 3/Table 8: the
// exact DP is out of reach at the Facebook trace's 10⁴ nodes (the paper
// leaves that optimal-tree cell empty). Mehlhorn's rule carries a
// constant-factor guarantee for binary search trees under point-access
// demand; for the network objective it is a heuristic, so the harness
// labels results "approx" wherever it substitutes for Optimal. Tests
// measure its gap against the exact DP on random demands.
//
// We deliberately do NOT ship a Knuth-speedup DP: Knuth's root
// monotonicity requires the quadrangle inequality, which the
// SplayNet-style boundary traffic W violates (observed gaps exceeded 30%
// on random demands), so that "optimization" would silently return wrong
// optima.
func WeightBalanced(d *workload.Demand, k int) (*core.Tree, int64, error) {
	return new(WeightBalancer).Build(d, k)
}

// WeightBalancer builds weight-balanced trees and keeps its scratch
// between builds: the point weights and the routing elements of the
// nodes being written. A network that rebuilds repeatedly (the lazy
// net's rebuild-wb adjuster) owns one and builds from point weights into
// its retired arena (Weights, BuildWeights), so a rebuild allocates
// nothing. The zero value is ready to use; a WeightBalancer must not be
// used by two goroutines at once.
type WeightBalancer struct {
	prefix []int64
	ths    []int
}

// Build is WeightBalanced on b's scratch: BuildWeights over the demand's
// point weights into a new arena, plus the tree's TotalDistance.
func (b *WeightBalancer) Build(d *workload.Demand, k int) (*core.Tree, int64, error) {
	if k < 2 {
		return nil, 0, fmt.Errorf("statictree: arity %d < 2", k)
	}
	if err := checkDemand(d); err != nil {
		return nil, 0, err
	}
	w := b.Weights(d.N)
	for _, pc := range d.Pairs {
		w[pc.Src] += pc.Count
		w[pc.Dst] += pc.Count
	}
	tree, err := b.BuildWeights(nil, w, k)
	if err != nil {
		return nil, 0, err
	}
	return tree, TotalDistance(tree, d), nil
}

// Weights returns b's point-weight scratch for n nodes, zeroed, to be
// filled and passed to BuildWeights: w[x], for x in 1..n, is the traffic
// with node x as either endpoint. It is valid until b's next Weights or
// Build.
func (b *WeightBalancer) Weights(n int) []int64 {
	b.prefix = resize(b.prefix, n+1)
	return b.prefix
}

// BuildWeights is the construction behind Build, from point weights: it
// writes the weight-balanced tree of arity k over the nodes 1..n, with
// n = len(w)−1 and w[x] node x's point weight (w[0] is ignored), into
// dst's arena (core.Arena; nil allocates a new one). It needs no pair
// list, so a caller that keeps point weights skips the sort that
// aggregating requests into pairs costs. It overwrites w with its
// prefix sums.
func (b *WeightBalancer) BuildWeights(dst *core.Tree, w []int64, k int) (*core.Tree, error) {
	if k < 2 {
		return nil, fmt.Errorf("statictree: arity %d < 2", k)
	}
	n := len(w) - 1
	if n < 1 {
		return nil, fmt.Errorf("statictree: empty demand")
	}
	t, root, err := core.Arena(dst, n, k)
	if err != nil {
		return nil, fmt.Errorf("statictree: %w", err)
	}
	// +1 per node so untouched nodes still spread evenly.
	w[0] = 0
	for x := 1; x <= n; x++ {
		w[x] += w[x-1] + 1
	}
	b.ths = resize(b.ths, n)
	wb := wbWriter{t: t, k: k, prefix: w}
	wb.write(root, 1, n, b.ths)
	return t, nil
}

// resize returns s with length n and every element zero, reusing its
// backing array when that is large enough.
func resize[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// wbWriter is one build's cursor: it writes the weight-balanced tree
// over prefix's ids into t, node by node, top down.
type wbWriter struct {
	t      *core.Tree
	k      int
	prefix []int64 // prefix[x]: point weights of ids 1..x
}

// wsum is the point weight of the ids in [i,j] (0 for j = i−1).
func (b *wbWriter) wsum(i, j int) int64 {
	return b.prefix[j] - b.prefix[i-1]
}

// write places the tree on the non-empty segment [i,j] into slot s. A
// node's routing elements go at the front of free and its subtrees use
// the rest in turn. A node has one routing element fewer than child
// slots, and at most one slot is empty, so a segment's nodes hold at
// most one routing element per id: len(free) ≥ j−i+1 is enough.
func (b *wbWriter) write(s core.Slot, i, j int, free []int) {
	if i == j {
		b.t.Place(s, i, nil)
		return
	}
	// Weighted median of [i,j] as the root.
	half := b.wsum(i, j) / 2
	r := i
	for r < j && b.wsum(i, r) < half {
		r++
	}
	// Split each side into near-equal-weight parts, slots proportional
	// to each side's share (at least one slot per non-empty side).
	leftN, rightN := r-i, j-r
	dl, dr := 0, 0
	switch {
	case leftN == 0:
		dr = minInt(b.k-1, rightN)
	case rightN == 0:
		dl = minInt(b.k-1, leftN)
	default:
		lw, rw := b.wsum(i, r-1), b.wsum(r+1, j)
		dl = int(int64(b.k) * lw / (lw + rw))
		dl = clampInt(dl, 1, b.k-1)
		dl = minInt(dl, leftN)
		dr = minInt(b.k-dl, rightN)
	}
	// The routing elements: the left parts' ends with r for the last
	// one's (r alone for an empty left side, whose slot stays empty),
	// then the right parts' ends but the last.
	ths := free[:0]
	start := i
	for p := dl; p > 1; p-- {
		end := b.partEnd(start, r-1, p)
		ths = append(ths, end)
		start = end + 1
	}
	ths = append(ths, r)
	start = r + 1
	for p := dr; p > 1; p-- {
		end := b.partEnd(start, j, p)
		ths = append(ths, end)
		start = end + 1
	}
	at := b.t.Place(s, r, ths)
	// Child slot c holds the ids after routing element c−1 up to
	// element c (j past the last), r aside.
	lo := i
	for c := 0; c <= len(ths); c++ {
		hi := j
		if c < len(ths) {
			hi = ths[c]
		}
		next := hi + 1
		if hi == r {
			hi--
		}
		if lo <= hi {
			b.write(at.Child(c), lo, hi, free[len(ths):])
		}
		lo = next
	}
}

// partEnd is where the next part ends when [start,j] is split into parts
// contiguous non-empty parts of near-equal weight.
func (b *wbWriter) partEnd(start, j, parts int) int {
	if parts == 1 {
		return j
	}
	target := b.wsum(start, j) / int64(parts)
	end := start
	for end < j-(parts-1) && b.wsum(start, end) < target {
		end++
	}
	return end
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func clampInt(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
