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
// between builds: the point weights and the spec, threshold and child
// slabs, which core.Build only reads. A network that rebuilds repeatedly
// (the lazy net's rebuild-wb adjuster) owns one and builds from point
// weights into its retired arena (Weights, BuildWeights), so a rebuild
// allocates nothing. The zero value is ready to use; a WeightBalancer
// must not be used by two goroutines at once.
type WeightBalancer struct {
	prefix []int64
	specs  []core.Spec
	ths    []int
	kids   []*core.Spec
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
// builds the weight-balanced tree of arity k over the nodes 1..n, with
// n = len(w)−1 and w[x] node x's point weight (w[0] is ignored), into
// dst's arena (core.BuildInto; nil allocates a new one). It needs no
// pair list, so a caller that keeps point weights skips the sort that
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
	// +1 per node so untouched nodes still spread evenly.
	w[0] = 0
	for x := 1; x <= n; x++ {
		w[x] += w[x-1] + 1
	}
	b.specs = resize(b.specs, n) // cleared: a leaf sets only its ID
	b.ths = resize(b.ths, n)
	b.kids = resize(b.kids, 2*n)
	wb := wbBuilder{k: k, prefix: w, specs: b.specs, ths: b.ths, kids: b.kids}
	tree, err := core.BuildInto(dst, k, wb.build(1, n))
	if err != nil {
		return nil, fmt.Errorf("statictree: weight-balanced construction invalid: %w", err)
	}
	return tree, nil
}

// resize returns s with length n and every element zero, reusing its
// backing array when that is large enough.
func resize[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// wbBuilder is one build's cursor over a WeightBalancer's slabs: it
// carves the weight-balanced Spec out of three slabs instead of
// allocating per node. Each child slot holds one of the n−1 non-root
// nodes or is the single empty slot beside a node whose ids lie on one
// side only, and a node has one threshold fewer than slots, so the whole
// spec needs at most n−1 thresholds and 2(n−1) child slots for any k.
type wbBuilder struct {
	k      int
	prefix []int64 // prefix[x]: point weights of ids 1..x
	specs  []core.Spec
	ths    []int
	kids   []*core.Spec
}

// wsum is the point weight of the ids in [i,j] (0 for j = i−1).
func (b *wbBuilder) wsum(i, j int) int64 {
	return b.prefix[j] - b.prefix[i-1]
}

// build returns the spec of the non-empty segment [i,j].
func (b *wbBuilder) build(i, j int) *core.Spec {
	spec := &b.specs[0]
	b.specs = b.specs[1:]
	if i == j {
		spec.ID = i
		return spec
	}
	// Weighted median of [i,j] as the root.
	half := b.wsum(i, j) / 2
	r := i
	for r < j && b.wsum(i, r) < half {
		r++
	}
	spec.ID = r
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
	slots := dl + dr
	if dl == 0 || dr == 0 {
		slots++ // the empty slot beside the node id
	}
	spec.Thresholds, b.ths = b.ths[:0:slots-1], b.ths[slots-1:]
	spec.Children, b.kids = b.kids[:0:slots], b.kids[slots:]

	if dl > 0 {
		start := i
		for p := dl; p > 0; p-- {
			end := b.partEnd(start, r-1, p)
			spec.Children = append(spec.Children, b.build(start, end))
			if p > 1 {
				spec.Thresholds = append(spec.Thresholds, end)
			} else {
				spec.Thresholds = append(spec.Thresholds, r)
			}
			start = end + 1
		}
	} else {
		spec.Thresholds = append(spec.Thresholds, r)
		spec.Children = append(spec.Children, nil)
	}
	if dr > 0 {
		start := r + 1
		for p := dr; p > 0; p-- {
			end := b.partEnd(start, j, p)
			spec.Children = append(spec.Children, b.build(start, end))
			if p > 1 {
				spec.Thresholds = append(spec.Thresholds, end)
			}
			start = end + 1
		}
	} else {
		spec.Children = append(spec.Children, nil)
	}
	return spec
}

// partEnd is where the next part ends when [start,j] is split into parts
// contiguous non-empty parts of near-equal weight.
func (b *wbBuilder) partEnd(start, j, parts int) int {
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
