package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchFragment builds one interleaved fragment with c ascending
// thresholds (the arena layout: children at even offsets, thresholds at
// odd offsets) and a probe-value stream whose answers are uniform over
// the slots — the worst case for the early-exit scan's branch predictor
// and the average case for routing.
func benchFragment(c int, rng *rand.Rand) (m []int32, values []int32) {
	m = make([]int32, 2*c+1)
	v := int32(0)
	for i := 0; i < c; i++ {
		v += 1 + rng.Int31n(64)
		m[2*i+1] = v
	}
	// A long probe stream (1M values, power-of-two length so the cycling
	// index is a mask) keeps the measurement honest: with a short cycle a
	// modern branch predictor memorizes the early-exit scan's exit points
	// and the scalar baseline benchmarks far below its real serve-path
	// cost, where probe values do not repeat.
	values = make([]int32, 1<<20)
	for i := range values {
		values[i] = rng.Int31n(v + 64)
	}
	return m, values
}

// BenchmarkSlotFor is the microbenchmark grid behind the kernel
// selection (DESIGN.md §13): every kernel family × the threshold counts
// that actually occur at served arities (c = k−1 node spans for
// k ∈ {2,5,8,16,32}, and 2(k−1)/3(k−1) rebuild merges). The sink defeats
// dead-code elimination; the value stream cycles so each probe's slot is
// unpredictable.
func BenchmarkSlotFor(b *testing.B) {
	var sink int
	for _, c := range []int{1, 4, 7, 8, 14, 15, 21, 31, 62, 93} {
		rng := rand.New(rand.NewSource(int64(c)))
		m, values := benchFragment(c, rng)
		run := func(name string, fn func(i int) int) {
			b.Run(fmt.Sprintf("c=%d/%s", c, name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sink += fn(i)
				}
			})
		}
		kern := kernelForCount(c)
		run("scalar", func(i int) int { return slotScalar(m, values[i%len(values)]) })
		run("kernel", func(i int) int { return kern(m, values[i%len(values)]) })
		run("swar", func(i int) int { return slotSWAR(m, values[i%len(values)]) })
		run("bisect", func(i int) int { return slotBisect(m, values[i%len(values)]) })
	}
	if sink == 1<<62 {
		b.Log(sink) // keep the accumulator live
	}
}

// BenchmarkMov races the rebuilds' two span-move strategies — the scalar
// int32 loop and copy()/memmove — on the exact lengths the rebuilds move:
// node spans 2k−1 and the d=2/d=3 merge fragments for the served arities.
// The crossover it measures sets movCopyMin (rebuild.go).
func BenchmarkMov(b *testing.B) {
	for _, n := range []int{3, 9, 15, 17, 29, 31, 45, 63, 93, 125, 187} {
		src := make([]int32, n)
		dst := make([]int32, n)
		for i := range src {
			src[i] = int32(i)
		}
		b.Run(fmt.Sprintf("n=%d/scalar", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = dst[:len(src)]
				for j := 0; j < len(src); j++ {
					dst[j] = src[j]
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/copy", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(dst, src)
			}
		})
		b.Run(fmt.Sprintf("n=%d/mov", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mov(dst, src)
			}
		})
	}
}
