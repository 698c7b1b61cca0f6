package workload

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"github.com/ksan-net/ksan/internal/sim"
)

// PairCount is one aggregated demand-matrix entry: Count requests from Src
// to Dst.
type PairCount struct {
	Src, Dst int
	Count    int64
}

// Demand is a sparse demand matrix D over nodes 1..N: D[u,v] counts the
// requests from u to v in a trace (the offline-static problem input).
type Demand struct {
	N     int
	Pairs []PairCount
	Total int64
}

// DemandFromTrace aggregates a trace into its demand matrix: Pairs sorted
// by (Src, Dst) with one entry per distinct pair.
//
// A trace with at least N² requests whose ids all lie in 1..N is counted
// in a dense N×N matrix, whose non-zero cells, read row by row, are the
// pairs in order (countDense). The matrix's 8·N² bytes are then no more
// than the 8 bytes per request of the key slice the sort path would
// allocate, and counting touches each request once where the sort moves
// it O(log m) times.
//
// Any other trace is aggregated by sorting rather than through a map:
// requests are packed into a preallocated key slice, sorted, and
// run-length encoded. On multi-million-request traces the map version
// paid one heap-allocated bucket entry per distinct pair plus hash work
// per request; the sort path allocates only the keys, the exact-size
// Pairs and the Demand, and is memory-bandwidth bound instead.
func DemandFromTrace(tr Trace) *Demand {
	d := &Demand{N: tr.N, Total: int64(len(tr.Reqs)), Pairs: []PairCount{}}
	if len(tr.Reqs) == 0 {
		return d
	}
	// n ≤ m/n is n² ≤ m without the overflow.
	if n := tr.N; n > 0 && n <= len(tr.Reqs)/n {
		if pairs, ok := countDense(tr); ok {
			d.Pairs = pairs
			return d
		}
	}
	// Node ids are 1..N by the package contract, so a (Src,Dst) pair packs
	// into one uint64 whose natural order is the (Src, Dst) lexicographic
	// order. Guard the contract anyway: ids outside [0, 2³¹) fall back to
	// a comparator sort with identical semantics.
	keys := make([]uint64, len(tr.Reqs))
	for i, rq := range tr.Reqs {
		if uint(rq.Src) >= 1<<31 || uint(rq.Dst) >= 1<<31 {
			return demandFromTraceCmp(tr)
		}
		keys[i] = uint64(rq.Src)<<32 | uint64(rq.Dst)
	}
	slices.Sort(keys)
	distinct := 1
	for i := 1; i < len(keys); i++ {
		if keys[i] != keys[i-1] {
			distinct++
		}
	}
	d.Pairs = make([]PairCount, 0, distinct)
	run := int64(1)
	for i := 1; i <= len(keys); i++ {
		if i < len(keys) && keys[i] == keys[i-1] {
			run++
			continue
		}
		k := keys[i-1]
		d.Pairs = append(d.Pairs, PairCount{Src: int(k >> 32), Dst: int(uint32(k)), Count: run})
		run = 1
	}
	return d
}

// countDense counts the trace's pairs in an N×N matrix, row Src−1 and
// column Dst−1, and returns its non-zero cells in row-major order, which
// is (Src, Dst) order, in an exact-size slice. ok is false, and the count
// abandoned, at the first id outside 1..N.
func countDense(tr Trace) (pairs []PairCount, ok bool) {
	n := tr.N
	counts := make([]int64, n*n)
	for _, rq := range tr.Reqs {
		if uint(rq.Src-1) >= uint(n) || uint(rq.Dst-1) >= uint(n) {
			return nil, false
		}
		counts[(rq.Src-1)*n+rq.Dst-1]++
	}
	distinct := 0
	for _, c := range counts {
		if c != 0 {
			distinct++
		}
	}
	pairs = make([]PairCount, 0, distinct)
	for src := 1; src <= n; src++ {
		for x, c := range counts[(src-1)*n : src*n] {
			if c != 0 {
				pairs = append(pairs, PairCount{Src: src, Dst: x + 1, Count: c})
			}
		}
	}
	return pairs, true
}

// demandFromTraceCmp is the comparator-sorted slow path of DemandFromTrace
// for ids that don't fit the packed-key fast path.
func demandFromTraceCmp(tr Trace) *Demand {
	pairs := make([]PairCount, len(tr.Reqs))
	for i, rq := range tr.Reqs {
		pairs[i] = PairCount{Src: rq.Src, Dst: rq.Dst, Count: 1}
	}
	slices.SortFunc(pairs, func(a, b PairCount) int {
		if a.Src != b.Src {
			return cmp.Compare(a.Src, b.Src)
		}
		return cmp.Compare(a.Dst, b.Dst)
	})
	d := &Demand{N: tr.N, Total: int64(len(pairs)), Pairs: pairs[:0]}
	for _, p := range pairs {
		if n := len(d.Pairs); n > 0 && d.Pairs[n-1].Src == p.Src && d.Pairs[n-1].Dst == p.Dst {
			d.Pairs[n-1].Count++
			continue
		}
		d.Pairs = append(d.Pairs, p)
	}
	return d
}

// Clone returns a deep copy of the demand (nil clones to nil). The policy
// layer's compacted window aggregate is mutated in place by later Merge
// calls, so checkpointing a net must copy it, not alias it.
func (d *Demand) Clone() *Demand {
	if d == nil {
		return nil
	}
	c := &Demand{N: d.N, Total: d.Total}
	if d.Pairs != nil {
		c.Pairs = make([]PairCount, len(d.Pairs))
		copy(c.Pairs, d.Pairs)
	}
	return c
}

// Merge folds other into d: counts of shared pairs sum, Total
// accumulates, and the pair list stays sorted by (Src, Dst). Demand
// aggregation is associative, so merging chunk-wise aggregates of a
// trace equals aggregating the whole trace — the policy layer leans on
// this to compact long observation windows incrementally instead of
// retaining every raw request. Both inputs must cover the same node set.
func (d *Demand) Merge(other *Demand) {
	if other == nil || len(other.Pairs) == 0 {
		if other != nil {
			d.Total += other.Total
		}
		return
	}
	merged := make([]PairCount, 0, len(d.Pairs)+len(other.Pairs))
	i, j := 0, 0
	less := func(a, b PairCount) bool {
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Dst < b.Dst
	}
	for i < len(d.Pairs) && j < len(other.Pairs) {
		a, b := d.Pairs[i], other.Pairs[j]
		switch {
		case a.Src == b.Src && a.Dst == b.Dst:
			a.Count += b.Count
			merged = append(merged, a)
			i++
			j++
		case less(a, b):
			merged = append(merged, a)
			i++
		default:
			merged = append(merged, b)
			j++
		}
	}
	merged = append(merged, d.Pairs[i:]...)
	merged = append(merged, other.Pairs[j:]...)
	d.Pairs = merged
	d.Total += other.Total
}

// UniformDemand is the paper's finite uniform workload: every ordered pair
// u<v requested exactly once (an upper-triangular matrix of ones).
func UniformDemand(n int) *Demand {
	d := &Demand{N: n}
	for u := 1; u <= n; u++ {
		for v := u + 1; v <= n; v++ {
			d.Pairs = append(d.Pairs, PairCount{Src: u, Dst: v, Count: 1})
		}
	}
	d.Total = int64(n) * int64(n-1) / 2
	return d
}

// Dense expands the demand into an n×n matrix (0-indexed by id-1). It
// refuses implausible sizes to protect callers from accidental huge
// allocations; the cubic DP guards its own input size separately.
func (d *Demand) Dense(maxN int) ([][]int64, error) {
	if d.N > maxN {
		return nil, fmt.Errorf("workload: dense matrix for n=%d exceeds limit %d", d.N, maxN)
	}
	m := make([][]int64, d.N)
	for i := range m {
		m[i] = make([]int64, d.N)
	}
	for _, pc := range d.Pairs {
		m[pc.Src-1][pc.Dst-1] += pc.Count
	}
	return m, nil
}

// Downscale maps a demand on 1..N onto a smaller node count nNew by folding
// ids modulo nNew (dropping pairs that collide onto self-loops). It is used
// to run the cubic DP on reduced instances of very large traces, mirroring
// the paper's own inability to compute the optimum at Facebook scale.
func (d *Demand) Downscale(nNew int) *Demand {
	if nNew >= d.N {
		return d
	}
	type key struct{ u, v int }
	acc := make(map[key]int64)
	for _, pc := range d.Pairs {
		u := 1 + (pc.Src-1)%nNew
		v := 1 + (pc.Dst-1)%nNew
		if u == v {
			continue
		}
		acc[key{u, v}] += pc.Count
	}
	out := &Demand{N: nNew}
	for k, c := range acc {
		out.Pairs = append(out.Pairs, PairCount{Src: k.u, Dst: k.v, Count: c})
		out.Total += c
	}
	sort.Slice(out.Pairs, func(i, j int) bool {
		if out.Pairs[i].Src != out.Pairs[j].Src {
			return out.Pairs[i].Src < out.Pairs[j].Src
		}
		return out.Pairs[i].Dst < out.Pairs[j].Dst
	})
	return out
}

// Requests converts a demand matrix back into an arbitrary-order request
// sequence (used by tests to round-trip traces).
func (d *Demand) Requests() []sim.Request {
	reqs := make([]sim.Request, 0, d.Total)
	for _, pc := range d.Pairs {
		for c := int64(0); c < pc.Count; c++ {
			reqs = append(reqs, sim.Request{Src: pc.Src, Dst: pc.Dst})
		}
	}
	return reqs
}
