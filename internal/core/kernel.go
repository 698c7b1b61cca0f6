package core

// Per-arity routing kernels for the threshold search (ROADMAP item 1,
// DESIGN.md §13).
//
// Every routing decision in the tree is the same primitive: given a node's
// sorted routing elements and a destination's cut-space value, find the
// child slot — the number of thresholds strictly less than the value. The
// PR 6 arena stores thresholds as dense int32 spans at a fixed stride
// precisely so this search needs no pointer chasing; this file removes its
// last per-element data-dependent branch.
//
// A slotKernel operates on an interleaved span or merge fragment (child
// indices at even offsets, ascending thresholds at odd offsets — the
// arena's native layout, see tree.go) and returns the slot index. Three
// kernel families exist:
//
//   - slotScalar: the original early-exit scan, kept verbatim as the
//     reference all other kernels are differentially tested against
//     (kernel_test.go) and the oracle Validate cross-checks.
//   - slot1..slot7: fully unrolled branchless comparison-counting kernels
//     for small threshold counts (arities 2..8): a sum of (thr < v) bits,
//     no data-dependent branches, no loop.
//   - slotSWAR: the chunked kernel for large counts — two int32 thresholds
//     are packed into one uint64 and compared against both lanes of a
//     broadcast value with a single subtraction, accumulating per-lane
//     ≥-bits that a final fold via math/bits reduces; 2 thresholds per
//     loop iteration, branch-free except the loop itself (whose trip count
//     is a pure function of k, so it always predicts).
//
// The kernels are exact, not approximate: on every input they return
// bit-identical answers to slotScalar (the goldens and the pointer-
// reference differential keep holding). Their domain is the arena's: cut
// values and thresholds are non-negative int31 quantities (Build rejects
// n·k beyond MaxInt32), so thr−v never overflows int32 and the packed-lane
// subtraction below never borrows across lanes.
//
// A Tree selects its kernels once at construction — one per threshold
// count it will ever search (k−1 for node spans, 2(k−1) and 3(k−1) for the
// d=2/d=3 rebuild merges) — and stores them as fields (tree.go), so the
// hot paths pay one well-predicted indirect call instead of a per-element
// branch chain.
//
// Layout decision (DESIGN.md §13 records the numbers): the kernels gather
// thresholds at stride 2 from the interleaved span rather than from a
// deinterleaved contiguous thresholds plane. BenchmarkSlotFor once raced
// both layouts (the plane kernels are in git history) and the plane lost:
// its contiguous loads save little at served arities while maintaining it
// would add k−1 stores per rebuilt node to every rotation and a second
// parallel array to build, snapshot and restore. The interleaved span is
// also the line the serve path touches anyway (the chosen child pointer
// lives between the thresholds).

// slotKernel returns the child slot the search property assigns to a
// cut-space value at a node: the number of thresholds (odd offsets of the
// interleaved fragment m) strictly less than the value.
type slotKernel func(m []int32, value int32) int

// slotScalar is the reference kernel: the pre-kernel early-exit scan.
// Thresholds ascend, so the count of elements < value is the index of the
// first ≥ value. It is correct for any threshold count and is what every
// other kernel is pinned against.
func slotScalar(m []int32, value int32) int {
	s := 0
	for i := 1; i < len(m); i += 2 {
		if m[i] >= value {
			break
		}
		s++
	}
	return s
}

// lt returns 1 when thr < v, else 0, as the sign bit of the int32
// difference — exact because both operands are non-negative int31 values.
func lt(thr, v int32) int { return int(uint32(thr-v) >> 31) }

func slot1(m []int32, v int32) int {
	return lt(m[1], v)
}

func slot2(m []int32, v int32) int {
	_ = m[3]
	return lt(m[1], v) + lt(m[3], v)
}

func slot3(m []int32, v int32) int {
	_ = m[5]
	return lt(m[1], v) + lt(m[3], v) + lt(m[5], v)
}

func slot4(m []int32, v int32) int {
	_ = m[7]
	return lt(m[1], v) + lt(m[3], v) + lt(m[5], v) + lt(m[7], v)
}

func slot5(m []int32, v int32) int {
	_ = m[9]
	return lt(m[1], v) + lt(m[3], v) + lt(m[5], v) + lt(m[7], v) + lt(m[9], v)
}

func slot6(m []int32, v int32) int {
	_ = m[11]
	return lt(m[1], v) + lt(m[3], v) + lt(m[5], v) + lt(m[7], v) + lt(m[9], v) + lt(m[11], v)
}

func slot7(m []int32, v int32) int {
	_ = m[13]
	return lt(m[1], v) + lt(m[3], v) + lt(m[5], v) + lt(m[7], v) + lt(m[9], v) + lt(m[11], v) + lt(m[13], v)
}

// swarSigns masks the sign bit of each packed 32-bit lane.
const swarSigns = 0x8000_0000_8000_0000

// slotSWAR counts thresholds < value two lanes at a time. Packing a
// threshold pair with the lane sign bits pre-set makes each 32-bit lane of
// the single uint64 subtraction self-contained (the minuend lane is at
// least 2³¹, the subtrahend below it, so no borrow ever crosses lanes) and
// leaves lane sign bit = (thr ≥ v). The shifted sign bits accumulate as
// two 32-bit lane counters — the loop has no data-dependent branches and
// its trip count depends only on len(m), i.e. on k.
//
// The main loop processes two packed words (four thresholds) per iteration
// into independent accumulators: a single-accumulator form serializes on
// the acc addition, and the two-chain form measures ~1.6× faster at the
// large merge counts (c = 62, 93) where this kernel is selected.
func slotSWAR(m []int32, value int32) int {
	vv := uint64(uint32(value))
	vv |= vv << 32
	var acc0, acc1 uint64
	i := 1
	for ; i+6 < len(m); i += 8 {
		w0 := uint64(uint32(m[i])) | uint64(uint32(m[i+2]))<<32 | swarSigns
		w1 := uint64(uint32(m[i+4])) | uint64(uint32(m[i+6]))<<32 | swarSigns
		acc0 += ((w0 - vv) & swarSigns) >> 31
		acc1 += ((w1 - vv) & swarSigns) >> 31
	}
	for ; i+2 < len(m); i += 4 {
		w := uint64(uint32(m[i])) | uint64(uint32(m[i+2]))<<32 | swarSigns
		acc0 += ((w - vv) & swarSigns) >> 31
	}
	acc0 += acc1
	ge := int(uint32(acc0)) + int(acc0>>32)
	if i < len(m) { // odd threshold count: one scalar tail lane
		ge += 1 - lt(m[i], value)
	}
	return (len(m)-1)/2 - ge
}

// slotBisect is the branchless binary search over the interleaved span:
// ⌈log₂ c⌉ probes instead of a linear pass. The loop's trip count is a
// pure function of c (the interval width sequence never depends on data),
// so the loop branch always predicts; the only data-dependent decision is
// the interval-narrowing conditional move. The early-exit scan touches c/2
// thresholds on average plus one guaranteed misprediction, and the SWAR
// pass touches all c — past c ≈ 30 both lose to log₂ c dependent loads
// (BenchmarkSlotFor, §13).
//
// Invariant: the answer (the count of thresholds < value) lies in
// [lo, lo+n]. Threshold j lives at interleaved offset 2j+1, so the probe
// of threshold lo+half−1 reads m[2(lo+half)−1].
func slotBisect(m []int32, value int32) int {
	lo, n := 0, (len(m)-1)/2
	for n > 1 {
		half := n >> 1
		// gc compiles a conditional `lo += half` to a branch, which
		// mispredicts on ~half the levels; the sign-bit mask form keeps
		// the narrowing step branch-free.
		lo += half & -lt(m[2*(lo+half)-1], value)
		n -= half
	}
	return lo + lt(m[2*lo+1], value)
}

// kernelForCount selects the kernel for a fragment holding c thresholds,
// per the three regimes BenchmarkSlotFor measures (§13 records the
// numbers): fully unrolled comparison counting up to c=7 (arities 2..8),
// the chunked SWAR pass in the narrow mid band where touching all c
// thresholds two-per-word still beats log₂ c serial dependent loads, and
// the branchless bisection beyond (by c=31 bisect is ~1.6× faster than
// SWAR and ~2.5× faster than the early-exit scan; at c=93 ~2.5× and
// ~2.6×). c is a construction-time constant per tree (k−1, 2(k−1) or
// 3(k−1)), so selection happens exactly once (newArena) and the serve
// path only ever sees the result.
func kernelForCount(c int) slotKernel {
	switch c {
	case 1:
		return slot1
	case 2:
		return slot2
	case 3:
		return slot3
	case 4:
		return slot4
	case 5:
		return slot5
	case 6:
		return slot6
	case 7:
		return slot7
	}
	if c < 14 {
		return slotSWAR
	}
	return slotBisect
}
