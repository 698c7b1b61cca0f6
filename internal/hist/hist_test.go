package hist

import (
	"math/rand"
	"sort"
	"testing"
)

// exactPercentile is the engine's sorted-sample rule (see
// engine.Result): the smallest value v such that at least ceil(q·total)
// observations are <= v.
func exactPercentile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted)) + 0.9999999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return float64(sorted[rank-1])
}

func observeAll(h *Hist, vs []int64) {
	for _, v := range vs {
		h.Observe(v)
	}
}

// TestHistExactRegion pins the core accuracy claim: for values below
// ExactLimit (64) the histogram has exact unit buckets, so its
// percentiles are bit-identical to the engine's sorted-sample rule at
// every quantile.
func TestHistExactRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vs := make([]int64, 5000)
	for i := range vs {
		vs[i] = int64(rng.Intn(base)) // all exact
	}
	var h Hist
	observeAll(&h, vs)
	sorted := append([]int64(nil), vs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, q := range []float64{0, 0.01, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
		got, want := h.Percentile(q), exactPercentile(sorted, q)
		if got != want {
			t.Errorf("Percentile(%v) = %v, want exact %v", q, got, want)
		}
	}
	if h.Min() != sorted[0] || h.Max() != sorted[len(sorted)-1] {
		t.Errorf("Min/Max = %d/%d, want %d/%d", h.Min(), h.Max(), sorted[0], sorted[len(sorted)-1])
	}
	var sum int64
	for _, v := range vs {
		sum += v
	}
	if h.Sum() != sum || h.Count() != int64(len(vs)) {
		t.Errorf("Sum/Count = %d/%d, want %d/%d", h.Sum(), h.Count(), sum, len(vs))
	}
}

// TestHistBoundedError pins the log-bucket accuracy bound: beyond the
// exact region the reported percentile is a lower bound on the exact
// order statistic with relative error at most 1/subHalf.
func TestHistBoundedError(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vs := make([]int64, 20000)
	for i := range vs {
		// Log-uniform over ~6 decades, the shape of latency samples.
		vs[i] = int64(1 + rng.Float64()*float64(int64(1)<<uint(10+rng.Intn(30))))
	}
	var h Hist
	observeAll(&h, vs)
	sorted := append([]int64(nil), vs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999, 1} {
		got, want := h.Percentile(q), exactPercentile(sorted, q)
		if got > want {
			t.Errorf("Percentile(%v) = %v exceeds exact %v (must be a lower bound)", q, got, want)
		}
		if want > 0 && (want-got)/want > 1.0/subHalf {
			t.Errorf("Percentile(%v) = %v, exact %v: relative error %.4f > 1/%d",
				q, got, want, (want-got)/want, subHalf)
		}
	}
}

// TestHistBucketRoundTrip checks the bucket geometry invariants for every
// value near every power-of-two boundary: lowerOf(bucketOf(v)) <= v,
// bucket indices are monotone in v, and lower bounds are monotone in the
// index.
func TestHistBucketRoundTrip(t *testing.T) {
	check := func(v int64) {
		idx := bucketOf(v)
		if lo := lowerOf(idx); lo > v {
			t.Fatalf("lowerOf(bucketOf(%d)) = %d > %d", v, lo, v)
		}
		if idx+1 < bucketOf(v) {
			t.Fatalf("bucketOf not monotone at %d", v)
		}
		if lowerOf(idx+1) <= lowerOf(idx) {
			t.Fatalf("lowerOf not monotone at index %d", idx)
		}
	}
	for _, b := range []int64{0, 1, 63, 64, 65, 127, 128, 1 << 20, 1 << 40, 1 << 62} {
		for d := int64(-2); d <= 2; d++ {
			if v := b + d; v >= 0 {
				check(v)
			}
		}
	}
	// The relative width bound: bucket width / lower bound <= 1/subHalf
	// in the log region.
	for exp := uint(7); exp < 63; exp++ {
		v := int64(1) << exp
		idx := bucketOf(v)
		width := lowerOf(idx+1) - lowerOf(idx)
		if float64(width)/float64(lowerOf(idx)) > 1.0/subHalf {
			t.Errorf("bucket %d (v=%d): width %d too wide for lower %d", idx, v, width, lowerOf(idx))
		}
	}
}

// TestHistMerge pins the merge property the concurrent measurement paths
// depend on: merging per-client histograms in any grouping equals
// observing the concatenated stream into one histogram.
func TestHistMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	parts := make([][]int64, 5)
	var all []int64
	for i := range parts {
		vs := make([]int64, 1000+rng.Intn(2000))
		for j := range vs {
			vs[j] = int64(rng.Intn(1 << 20))
		}
		parts[i] = vs
		all = append(all, vs...)
	}

	var direct Hist
	observeAll(&direct, all)

	// Left fold.
	var fold Hist
	for _, vs := range parts {
		var h Hist
		observeAll(&h, vs)
		fold.Merge(&h)
	}
	// Tree fold with a different grouping.
	var left, right, tree Hist
	observeAll(&left, parts[0])
	observeAll(&left, parts[1])
	var mid Hist
	observeAll(&mid, parts[2])
	left.Merge(&mid)
	observeAll(&right, parts[3])
	observeAll(&right, parts[4])
	tree.Merge(&right)
	tree.Merge(&left)

	for _, m := range []*Hist{&fold, &tree} {
		if m.Count() != direct.Count() || m.Sum() != direct.Sum() ||
			m.Min() != direct.Min() || m.Max() != direct.Max() {
			t.Fatalf("merged summary diverges: %+v vs %+v", m, direct)
		}
		for _, q := range []float64{0.1, 0.5, 0.99, 1} {
			if m.Percentile(q) != direct.Percentile(q) {
				t.Errorf("merged Percentile(%v) = %v, direct %v", q, m.Percentile(q), direct.Percentile(q))
			}
		}
	}

	// Merging nil and empty histograms is a no-op.
	before := fold.Count()
	fold.Merge(nil)
	fold.Merge(&Hist{})
	if fold.Count() != before {
		t.Errorf("nil/empty merge changed the histogram")
	}
}

// TestHistEmptyAndNegative pins the zero-value contract (an empty
// histogram reports zeros everywhere, never divides by zero) and the
// domain guard: observations are non-negative counts, so Observe must
// reject negatives loudly rather than corrupt a bucket.
func TestHistEmptyAndNegative(t *testing.T) {
	var h Hist
	if h.Percentile(0.5) != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Errorf("empty histogram must report zeros")
	}
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s must panic", name)
			}
		}()
		f()
	}
	mustPanic("Observe(-1)", func() { h.Observe(-1) })
}

// TestHistZeroAllocs pins the measurement paths' contract: once the
// bucket array covers the observed range, Observe (once per request),
// Merge (once per client at the end of a run) and Percentile allocate
// nothing.
func TestHistZeroAllocs(t *testing.T) {
	var h, src Hist
	for v := int64(0); v < 1<<20; v += 97 {
		src.Observe(v)
	}
	h.Merge(&src) // grows h's buckets to src's range
	i := int64(0)
	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"Observe", func() { h.Observe(i & 0xfffff); i++ }},
		{"Merge", func() { h.Merge(&src) }},
		{"Percentile", func() { _ = h.Percentile(0.99) }},
	} {
		if avg := testing.AllocsPerRun(1000, tc.op); avg != 0 {
			t.Errorf("%s: %.2f allocs per call, want 0", tc.name, avg)
		}
	}
}
