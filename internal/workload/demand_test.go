package workload

import (
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/ksan-net/ksan/internal/sim"
)

// demandFromTraceMap is the pre-PR-4 map-based aggregation, kept as the
// reference implementation for the sort-based rewrite.
func demandFromTraceMap(tr Trace) *Demand {
	type key struct{ u, v int }
	acc := make(map[key]int64)
	for _, rq := range tr.Reqs {
		acc[key{rq.Src, rq.Dst}]++
	}
	d := &Demand{N: tr.N, Pairs: make([]PairCount, 0, len(acc))}
	for k, c := range acc {
		d.Pairs = append(d.Pairs, PairCount{Src: k.u, Dst: k.v, Count: c})
		d.Total += c
	}
	sort.Slice(d.Pairs, func(i, j int) bool {
		if d.Pairs[i].Src != d.Pairs[j].Src {
			return d.Pairs[i].Src < d.Pairs[j].Src
		}
		return d.Pairs[i].Dst < d.Pairs[j].Dst
	})
	return d
}

// TestDemandFromTraceMatchesMapVersion covers both aggregation paths: a
// trace of at least N² requests is counted densely (uniform, temporal,
// hpc, projector, tiny-n, max-repeats, N², N²+1 and the n=511 projector),
// a shorter one is sorted (zipf, facebook, single, one-pair and N²−1),
// and a trace carrying an id outside 1..N must leave the dense path.
func TestDemandFromTraceMatchesMapVersion(t *testing.T) {
	withReq := func(tr Trace, rq sim.Request) Trace {
		return Trace{N: tr.N, Reqs: append(slices.Clip(tr.Reqs), rq)}
	}
	traces := map[string]Trace{
		"uniform":     Uniform(40, 5000, 1),
		"temporal":    Temporal(63, 5000, 0.75, 2),
		"zipf":        Zipf(100, 5000, 1.2, 3),
		"hpc":         HPCLike(64, 5000, 4),
		"projector":   ProjecToRLike(50, 5000, 5),
		"facebook":    FacebookLike(128, 5000, 6),
		"empty":       {N: 10},
		"single":      {N: 10, Reqs: Uniform(10, 1, 7).Reqs},
		"one-pair":    {N: 4, Reqs: Uniform(4, 200, 8).Reqs[:1]},
		"tiny-n":      Uniform(2, 300, 9),
		"max-repeats": Temporal(16, 4000, 0.9, 10),
		"N²-1":        Zipf(30, 30*30-1, 1.1, 11),
		"N²":          Zipf(30, 30*30, 1.1, 11),
		"N²+1":        Zipf(30, 30*30+1, 1.1, 11),
		"id 0":        withReq(Uniform(30, 30*30, 12), sim.Request{Src: 0, Dst: 3}),
		"id N+1":      withReq(Uniform(30, 30*30, 12), sim.Request{Src: 2, Dst: 31}),
		// perfbench's offline-opt-projector-k4 demand sample.
		"projector n=511 m=1e6": ProjecToRLike(511, 1_000_000, 1),
	}
	for name, tr := range traces {
		got := DemandFromTrace(tr)
		want := demandFromTraceMap(tr)
		if got.N != want.N || got.Total != want.Total {
			t.Fatalf("%s: N/Total (%d,%d), want (%d,%d)", name, got.N, got.Total, want.N, want.Total)
		}
		if !reflect.DeepEqual(got.Pairs, want.Pairs) {
			t.Fatalf("%s: sort-based pairs diverge from map-based reference\n got %v\nwant %v",
				name, got.Pairs, want.Pairs)
		}
	}
}

func TestDemandFromTraceCmpFallback(t *testing.T) {
	// Ids outside the packed-key range must take the comparator path and
	// still aggregate identically to the reference.
	// Negative ids are out of the packed-key range on every platform (an
	// id ≥ 2³¹ would too, but that constant doesn't compile on 32-bit).
	tr := Trace{N: 5, Reqs: Uniform(5, 50, 3).Reqs}
	tr.Reqs = append(tr.Reqs,
		sim.Request{Src: -7, Dst: 2},
		sim.Request{Src: -7, Dst: 2},
		sim.Request{Src: -3, Dst: 4})
	got := DemandFromTrace(tr)
	want := demandFromTraceMap(tr)
	if !reflect.DeepEqual(got.Pairs, want.Pairs) || got.Total != want.Total {
		t.Fatalf("fallback path diverges:\n got %+v total %d\nwant %+v total %d",
			got.Pairs, got.Total, want.Pairs, want.Total)
	}
}

func TestDemandMergeEqualsWholeTraceAggregation(t *testing.T) {
	// Merge is the associativity contract the policy layer's window
	// compaction relies on: aggregating a trace chunk-wise and merging
	// must equal aggregating the whole trace, for any chunking.
	tr := Temporal(63, 8000, 0.7, 11)
	want := DemandFromTrace(tr)
	for _, chunk := range []int{1, 7, 64, 1000, 8000, 9999} {
		var acc *Demand
		for lo := 0; lo < len(tr.Reqs); lo += chunk {
			hi := min(lo+chunk, len(tr.Reqs))
			d := DemandFromTrace(Trace{N: tr.N, Reqs: tr.Reqs[lo:hi]})
			if acc == nil {
				acc = d
			} else {
				acc.Merge(d)
			}
		}
		if acc.Total != want.Total || !reflect.DeepEqual(acc.Pairs, want.Pairs) {
			t.Fatalf("chunk=%d: merged aggregate diverges from whole-trace aggregation", chunk)
		}
		if !slices.IsSortedFunc(acc.Pairs, func(a, b PairCount) int {
			if a.Src != b.Src {
				return a.Src - b.Src
			}
			return a.Dst - b.Dst
		}) {
			t.Fatalf("chunk=%d: merged pairs not sorted", chunk)
		}
	}
	// Merging an empty/nil demand only folds totals.
	d := DemandFromTrace(Trace{N: 8, Reqs: tr.Reqs[:10]})
	before := len(d.Pairs)
	d.Merge(&Demand{N: 8})
	d.Merge(nil)
	if len(d.Pairs) != before {
		t.Error("empty merge changed the pair list")
	}
}

// BenchmarkDemandFromTrace times one row per aggregation path: the sort
// (temporal, fewer than N² requests) and the dense count (perfbench's
// offline demand sample, 10⁶ requests on 511 nodes).
func BenchmarkDemandFromTrace(b *testing.B) {
	for _, c := range []struct {
		name string
		tr   Trace
	}{
		{"sparse/temporal/n=1023/m=200000", Temporal(1023, 200_000, 0.5, 1)},
		{"dense/projector/n=511/m=1000000", ProjecToRLike(511, 1_000_000, 1)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				DemandFromTrace(c.tr)
			}
		})
	}
}

func BenchmarkDemandFromTraceMap(b *testing.B) {
	tr := Temporal(1023, 200_000, 0.5, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		demandFromTraceMap(tr)
	}
}
