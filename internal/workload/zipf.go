package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// zipfSampler draws ranks 1..n with probability proportional to explicit
// per-rank weights by inverse CDF: a draw u ∈ [0,1) picks the first rank
// whose CDF reaches u. It is a small deterministic alternative to
// math/rand's rejection-based Zipf that makes the generated traces easy to
// reason about in tests (the CDF is explicit), and the same CDF machinery
// backs the exponential and histogram kinds.
//
// A cutpoint guide table (Chen and Asau, 1974) finds that rank in expected
// constant time: guide[j] is the first rank whose CDF reaches j/m, with m
// the smallest power of two ≥ n, so a draw starts at guide[⌊u·m⌋] and
// steps forward while the CDF is below u. Because m is a power of two,
// u·m and j/m are exact, so j/m ≤ u and the start never passes the rank a
// binary search over the CDF returns: the two agree on every u
// (DESIGN.md §10).
type zipfSampler struct {
	cdf   []float64
	guide []int32
	scale float64 // len(guide)
}

func newZipfSampler(n int, s float64) *zipfSampler {
	return newCDFSampler(n, zipfWeight(s))
}

// newExpSampler weights rank r by exp(-s·(r-1)/n): the YCSB "exponential"
// popularity shape, with s fixing how many e-foldings of decay span the
// whole rank range (s=8 puts ~99.97% of the mass in the first n/8 ranks...
// scaled by n so one s means one shape at every network size).
func newExpSampler(n int, s float64) *zipfSampler {
	return newCDFSampler(n, expWeight(n, s))
}

// newWeightSampler builds the sampler of explicit per-rank weights (the
// histogram kind). Each weight must be finite and non-negative, and
// spreadError must accept them.
func newWeightSampler(weights []float64) (*zipfSampler, error) {
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("workload: histogram weight %d is %v; want finite and non-negative", i, w)
		}
	}
	weight := func(r int) float64 { return weights[r-1] }
	if err := weightSpread(len(weights), weight); err != nil {
		return nil, fmt.Errorf("workload: histogram: %w", err)
	}
	return newCDFSampler(len(weights), weight), nil
}

func zipfWeight(s float64) func(r int) float64 {
	return func(r int) float64 { return 1 / math.Pow(float64(r), s) }
}

func expWeight(n int, s float64) func(r int) float64 {
	return func(r int) float64 { return math.Exp(-s * float64(r-1) / float64(n)) }
}

// newCDFSampler normalises the running sums of weight(1..n) into the CDF
// and builds its guide table. The weights must have a finite positive
// total, which makes the last CDF entry exactly 1.
func newCDFSampler(n int, weight func(r int) float64) *zipfSampler {
	cdf := make([]float64, n)
	acc := 0.0
	for r := 1; r <= n; r++ {
		acc += weight(r)
		cdf[r-1] = acc
	}
	for i := range cdf {
		cdf[i] /= acc
	}
	m := 1
	for m < n {
		m <<= 1
	}
	guide := make([]int32, m)
	i := 0
	for j := range guide {
		cut := float64(j) / float64(m)
		for i < n-1 && cdf[i] < cut {
			i++
		}
		guide[j] = int32(i)
	}
	return &zipfSampler{cdf: cdf, guide: guide, scale: float64(m)}
}

// sample returns a rank in 1..n.
func (z *zipfSampler) sample(rng *rand.Rand) int {
	return z.rank(rng.Float64())
}

// rank returns the first rank whose CDF reaches u ∈ [0,1), or n when none
// does.
func (z *zipfSampler) rank(u float64) int {
	i := int(z.guide[int(u*z.scale)])
	for i < len(z.cdf)-1 && z.cdf[i] < u {
		i++
	}
	return i + 1
}

// minOutside is the least share of an endpoint draw's mass that must lie
// outside its heaviest node.
const minOutside = 0x1p-20

// spreadError is the one test of whether an endpoint draw can form
// request pairs. The zipf, exponential, latest, hotspot and histogram
// kinds redraw a request's destination until it differs from its source,
// which takes 1/(1−p) draws on average when the source holds share p of
// the draw. So a draw whose heaviest node leaves less than 2^-20 of the
// total to the others (over 10⁶ expected redraws per request), or whose
// total is not finite, is rejected: its stream would never end.
func spreadError(heaviest, total float64) error {
	if !(total > 0) || math.IsInf(total, 0) {
		return fmt.Errorf("endpoint weights total %v; want a finite positive total", total)
	}
	if outside := (total - heaviest) / total; !(outside >= minOutside) {
		return fmt.Errorf("one node holds all but %.3g of an endpoint draw, want at least 2^-20 elsewhere: redrawing self-loops would not end", outside)
	}
	return nil
}

// weightSpread is spreadError over weight(1..n).
func weightSpread(n int, weight func(r int) float64) error {
	heaviest, total := 0.0, 0.0
	for r := 1; r <= n; r++ {
		w := weight(r)
		heaviest = max(heaviest, w)
		total += w
	}
	return spreadError(heaviest, total)
}

// ZipfSpread returns an error when Zipf(s) over n ranks, the endpoint
// draw of the zipf and latest kinds, concentrates so nearly all of its
// mass on one rank that redrawing self-loops would not end.
func ZipfSpread(n int, s float64) error {
	if err := weightSpread(n, zipfWeight(s)); err != nil {
		return fmt.Errorf("workload: Zipf(%v) over %d ranks: %w", s, n, err)
	}
	return nil
}

// ExponentialSpread is ZipfSpread for the exponential kind's decay s.
func ExponentialSpread(n int, s float64) error {
	if err := weightSpread(n, expWeight(n, s)); err != nil {
		return fmt.Errorf("workload: exponential decay %v over %d ranks: %w", s, n, err)
	}
	return nil
}

// HotspotSpread returns an error unless the hotspot kind can draw from
// its parameters: hotFrac of the n nodes must leave both the hot and the
// cold set non-empty, hotOpn must lie in (0,1), and the draw must spread
// like ZipfSpread's, where a hot node holds hotOpn/hot of it and a cold
// one (1−hotOpn)/(n−hot).
func HotspotSpread(n int, hotFrac, hotOpn float64) error {
	hot := int(hotFrac * float64(n))
	if hotFrac <= 0 || hotFrac >= 1 || hot < 1 || hot >= n {
		return fmt.Errorf("workload: hotspot needs hot in (0,1) with hot·n in 1..n-1, got hot=%v n=%d", hotFrac, n)
	}
	if hotOpn <= 0 || hotOpn >= 1 {
		return fmt.Errorf("workload: hotspot needs hotopn in (0,1), got %v", hotOpn)
	}
	if err := spreadError(max(hotOpn/float64(hot), (1-hotOpn)/float64(n-hot)), 1); err != nil {
		return fmt.Errorf("workload: hotspot %v/%v over %d nodes: %w", hotFrac, hotOpn, n, err)
	}
	return nil
}
