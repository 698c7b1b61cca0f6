// Package hist provides the streaming log-bucketed histogram shared by
// the measurement paths: the sequential evaluation engine's per-request
// cost accounting (engine.Result percentiles), the concurrent serving
// layer's per-client latency statistics (serve), and any tool that needs
// mergeable bounded-memory percentiles.
//
// Values below base (64) land in exact unit buckets, so integer routing
// costs — tree-path lengths of at most a few dozen edges — record exactly
// and percentiles over them are bit-identical to a sorted-sample rule.
// Beyond that each doubling of the value range splits into subHalf linear
// sub-buckets, bounding relative quantization error by 1/subHalf ≈ 3% —
// the standard HDR-histogram trade-off, paid only by nanosecond-scale
// latency observations.
package hist

import (
	"fmt"
	"math"
	"math/bits"
)

// Log-bucket geometry.
const (
	subBits = 6
	base    = 1 << subBits       // 64 exact unit buckets
	subHalf = 1 << (subBits - 1) // 32 sub-buckets per octave beyond
)

// ExactLimit is the smallest value that no longer records exactly: every
// observation below it has its own unit bucket, so percentiles restricted
// to such values are exact order statistics (TestHistExactRegion is the
// contract).
const ExactLimit = base

// Hist is a streaming log-bucketed histogram over non-negative int64
// values: O(1) Observe, O(buckets) Merge and Percentile, O(log(max))
// buckets total — never a per-sample buffer. The zero value is an empty,
// usable histogram. Hist is not safe for concurrent use; concurrent
// callers keep per-routine instances and merge them once a run drains
// (Merge is associative and commutative, so any merge grouping yields the
// same histogram).
type Hist struct {
	counts []int64
	count  int64
	sum    int64
	min    int64 // valid only when count > 0
	max    int64
}

// bucketOf maps a value to its bucket index.
func bucketOf(v int64) int {
	if v < base {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - subBits - 1 // v in [base<<exp, base<<(exp+1))
	return base + exp*subHalf + int(v>>uint(exp+1)) - subHalf
}

// lowerOf returns the smallest value that maps to bucket idx — the
// representative Percentile reports, chosen as the lower bound so that in
// the exact region the histogram's percentile definition coincides with
// the engine's ("the smallest cost c such that at least ceil(q·total)
// observations are ≤ c").
func lowerOf(idx int) int64 {
	if idx < base {
		return int64(idx)
	}
	rel := idx - base
	exp, sub := rel/subHalf, rel%subHalf
	return int64(subHalf+sub) << uint(exp+1)
}

// Observe folds one value into the histogram. Negative values are a
// caller bug (costs and latencies are non-negative) and panic.
func (h *Hist) Observe(v int64) {
	if v < 0 {
		panic(fmt.Sprintf("hist: Observe(%d): negative value", v))
	}
	idx := bucketOf(v)
	if idx >= len(h.counts) {
		grown := make([]int64, idx+1)
		copy(grown, h.counts)
		h.counts = grown
	}
	h.counts[idx]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Merge folds o into h. Merging is associative and commutative, so
// routine- and shard-local histograms combine into global percentiles in
// any grouping. o is unchanged; a nil or empty o is a no-op.
func (h *Hist) Merge(o *Hist) {
	if o == nil || o.count == 0 {
		return
	}
	if len(o.counts) > len(h.counts) {
		grown := make([]int64, len(o.counts))
		copy(grown, h.counts)
		h.counts = grown
	}
	for i, n := range o.counts {
		h.counts[i] += n
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
}

// Count returns the number of observations.
func (h *Hist) Count() int64 { return h.count }

// Sum returns the exact sum of all observations (tracked outside the
// buckets, so it carries no quantization error).
func (h *Hist) Sum() int64 { return h.sum }

// Min returns the exact smallest observation (0 when empty).
func (h *Hist) Min() int64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the exact largest observation (0 when empty).
func (h *Hist) Max() int64 { return h.max }

// Mean returns the exact arithmetic mean (0 when empty).
func (h *Hist) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// BucketCount returns the number of observations recorded exactly at
// value v, meaningful only in the exact region (v < ExactLimit); for
// larger v it returns the count of v's whole log bucket. Tests and
// cost-distribution reports use it to read the histogram back as the
// cost-indexed count vector it replaced.
func (h *Hist) BucketCount(v int64) int64 {
	idx := bucketOf(v)
	if idx >= len(h.counts) {
		return 0
	}
	return h.counts[idx]
}

// Percentile returns the value at quantile q in [0,1]: the lower bound of
// the first bucket whose cumulative count reaches ceil(q·count) — in the
// exact region (values < ExactLimit) bit-identical to the engine's
// sorted-sample percentile rule, beyond it a lower bound within 1/32 of
// the exact order statistic. Returns 0 on an empty histogram.
func (h *Hist) Percentile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	var cum int64
	for idx, n := range h.counts {
		cum += n
		if cum >= rank {
			return float64(lowerOf(idx))
		}
	}
	return float64(h.max) // unreachable: cum reaches count >= rank
}
