package core

import (
	"math/rand"
	"sort"
	"testing"
)

// kernelVariants enumerates every interleaved-span kernel family member
// that must agree with slotScalar, including the selected-per-count
// dispatch result. minC is the smallest threshold count a variant is
// defined for (the unrolled kernels read fixed offsets).
type kernelVariant struct {
	name string
	fn   slotKernel
	minC int
}

func interleavedVariants(c int) []kernelVariant {
	vs := []kernelVariant{
		{"kernelForCount", kernelForCount(c), 1},
		{"slotSWAR", slotSWAR, 1},
		{"slotBisect", slotBisect, 1},
	}
	if fn, ok := unrolled[c]; ok {
		vs = append(vs, kernelVariant{"unrolled", fn, c})
	}
	return vs
}

// unrolled maps each merge count below 8 to its unrolled kernel.
var unrolled = map[int]slotKernel{2: slot2, 3: slot3, 4: slot4, 6: slot6}

// fragmentFor packs ascending thresholds into an interleaved fragment
// (children at even offsets, thresholds at odd offsets).
func fragmentFor(thr []int32) []int32 {
	m := make([]int32, 2*len(thr)+1)
	for i, v := range thr {
		m[2*i+1] = v
	}
	return m
}

// probesFor returns the values every kernel must be probed at for a given
// ascending threshold slice: each threshold itself (the ≥ boundary where
// branchless arithmetic could plausibly diverge from the early-exit scan),
// one cut on either side, zero, and values beyond both ends.
func probesFor(thr []int32) []int32 {
	ps := []int32{0, 1}
	for _, t := range thr {
		ps = append(ps, t-1, t, t+1)
	}
	last := thr[len(thr)-1]
	ps = append(ps, last+64, 1<<30)
	return ps
}

// ascendingThresholds draws c strictly increasing non-negative int31
// thresholds (the arena's domain: Build rejects cut values beyond int32).
func ascendingThresholds(rng *rand.Rand, c int) []int32 {
	thr := make([]int32, c)
	v := int32(0)
	for i := range thr {
		v += 1 + rng.Int31n(1<<20)
		thr[i] = v
	}
	return thr
}

// TestKernelMatchesScalarReference pins every kernel family to the
// slotScalar reference on random spans at every threshold count the trees
// can select (k−1, 2(k−1), 3(k−1) for k = 2..32 covers c = 1..93) and on
// boundary-heavy probe sets.
func TestKernelMatchesScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for c := 1; c <= 96; c++ {
		for trial := 0; trial < 8; trial++ {
			thr := ascendingThresholds(rng, c)
			m := fragmentFor(thr)
			probes := probesFor(thr)
			for i := 0; i < 16; i++ {
				probes = append(probes, rng.Int31())
			}
			for _, v := range probes {
				want := slotScalar(m, v)
				for _, kv := range interleavedVariants(c) {
					if got := kv.fn(m, v); got != want {
						t.Fatalf("c=%d %s(%v, %d) = %d, scalar reference says %d", c, kv.name, thr, v, got, want)
					}
				}
			}
		}
	}
}

// TestKernelsAllocFree pins that every kernel family, the scalar
// reference included, searches without allocating at every threshold
// count the trees can select: a kernel runs in every rebuild merge of
// every request.
func TestKernelsAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for c := 1; c <= 93; c++ {
		thr := ascendingThresholds(rng, c)
		m := fragmentFor(thr)
		probes := probesFor(thr)
		for _, kv := range append(interleavedVariants(c), kernelVariant{"slotScalar", slotScalar, 1}) {
			i := 0
			search := func() {
				kv.fn(m, probes[i%len(probes)])
				i++
			}
			if avg := testing.AllocsPerRun(100, search); avg != 0 {
				t.Errorf("c=%d %s: %.2f allocs per search, want 0", c, kv.name, avg)
			}
		}
	}
}

// TestKernelSortedInsertionPoints cross-checks the kernels against
// sort.Search's lower-bound semantics: the slot is exactly the insertion
// point of value into the ascending threshold list.
func TestKernelSortedInsertionPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, c := range []int{1, 2, 4, 7, 14, 21, 31, 62, 93} {
		thr := ascendingThresholds(rng, c)
		m := fragmentFor(thr)
		for _, v := range probesFor(thr) {
			want := sort.Search(len(thr), func(i int) bool { return thr[i] >= v })
			if got := slotScalar(m, v); got != want {
				t.Fatalf("c=%d slotScalar(%v, %d) = %d, sort.Search says %d", c, thr, v, got, want)
			}
			if got := kernelForCount(c)(m, v); got != want {
				t.Fatalf("c=%d kernelForCount(%v, %d) = %d, sort.Search says %d", c, thr, v, got, want)
			}
		}
	}
}

// FuzzKernelDifferential feeds arbitrary byte strings as (threshold deltas,
// probe value) pairs, so the fuzzer explores threshold counts, spacings
// (including adjacent thresholds, delta 1) and probe positions, checking
// every kernel family against the scalar reference. Seeds cover the counts
// kernelForCount dispatches on both sides of each selection boundary.
func FuzzKernelDifferential(f *testing.F) {
	f.Add(uint16(1), uint32(0), int64(1))
	f.Add(uint16(7), uint32(1<<20), int64(2))
	f.Add(uint16(8), uint32(1<<30), int64(3))
	f.Add(uint16(14), uint32(77), int64(4))
	f.Add(uint16(31), uint32(1), int64(5))
	f.Add(uint16(93), uint32(1<<28), int64(6))
	f.Fuzz(func(t *testing.T, cRaw uint16, probe uint32, seed int64) {
		c := int(cRaw)%96 + 1
		rng := rand.New(rand.NewSource(seed))
		thr := ascendingThresholds(rng, c)
		m := fragmentFor(thr)
		v := int32(probe & 0x7fffffff)
		probes := append(probesFor(thr), v)
		for _, pv := range probes {
			want := slotScalar(m, pv)
			for _, kv := range interleavedVariants(c) {
				if got := kv.fn(m, pv); got != want {
					t.Fatalf("c=%d %s(value=%d) = %d, scalar reference says %d (thresholds %v)", c, kv.name, pv, got, want, thr)
				}
			}
		}
	})
}
