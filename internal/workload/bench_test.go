package workload

import (
	"fmt"
	"math/rand"
	"testing"
)

// namedGen is one generator of a kind, for tables over every kind.
type namedGen struct {
	name string
	gen  Generator
}

// everyKind builds one generator of every kind over n nodes and m
// requests.
func everyKind(tb testing.TB, n, m int) []namedGen {
	w := make([]float64, n)
	for i := range w {
		w[i] = float64(n - i)
	}
	hist, err := HistogramGen(n, m, w, 1)
	if err != nil {
		tb.Fatal(err)
	}
	phased, err := PhasedGen("drift", []Phase{
		{Gen: HotspotGen(n, m/2, 0.1, 0.9, 1), M: m / 2},
		{Gen: HotspotGen(n, m/2, 0.1, 0.9, 2), M: m / 2},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return []namedGen{
		{"uniform", UniformGen(n, m, 1)},
		{"temporal", TemporalGen(n, m, 0.75, 1)},
		{"hpc", HPCGen(n, m, 1)},
		{"projector", ProjectorGen(n, m, 1)},
		{"facebook", FacebookGen(n, m, 1)},
		{"zipf", ZipfGen(n, m, 1.1, 1)},
		{"hotspot", HotspotGen(n, m, 0.1, 0.9, 1)},
		{"exponential", ExponentialGen(n, m, 4, 1)},
		{"latest", LatestGen(n, m, 1.1, 1)},
		{"sequential", SequentialGen(n, m)},
		{"histogram", hist},
		{"phased", phased},
	}
}

// pass runs one full pass of g and reports how many requests it yielded.
func pass(tb testing.TB, g Generator) int {
	count := 0
	for _, err := range g.Requests() {
		if err != nil {
			tb.Fatal(err)
		}
		count++
	}
	return count
}

// BenchmarkGenerate measures one full streaming pass per op for every
// generator kind: 100k requests over a mid-sized node space.
// TestGeneratorAllocsConstantInRequests holds the allocation profile: a
// pass allocates its rng, permutations and samplers once, never per
// request.
func BenchmarkGenerate(b *testing.B) {
	const n, m = 256, 100_000
	for _, tc := range everyKind(b, n, m) {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if count := pass(b, tc.gen); count != m {
					b.Fatalf("pass yielded %d requests, want %d", count, m)
				}
			}
			b.SetBytes(int64(m))
		})
	}
}

// BenchmarkCollect is the materializing counterpart: the same pass plus
// the slice the streaming path exists to avoid. The gap between this and
// BenchmarkGenerate/uniform is the refactor's memory story in one number.
func BenchmarkCollect(b *testing.B) {
	const n, m = 256, 100_000
	g := UniformGen(n, m, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr, err := Collect(g)
		if err != nil {
			b.Fatal(err)
		}
		if tr.Len() != m {
			b.Fatal("short collect")
		}
	}
}

// BenchmarkSample times one rank draw per op at the sizes the workloads
// draw from: the projector's ~2 044 pairs (n = 511) and the temporal
// trace's 65 535 ranks. The search rows time the binary search the guide
// table replaced, on the same CDF.
func BenchmarkSample(b *testing.B) {
	for _, n := range []int{2044, 65535} {
		for _, tc := range everySampler(b, n) {
			z := tc.z
			b.Run(fmt.Sprintf("%s/n=%d/guide", tc.name, n), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				sum := 0
				for i := 0; i < b.N; i++ {
					sum += z.sample(rng)
				}
				sampleSink = sum
			})
			b.Run(fmt.Sprintf("%s/n=%d/search", tc.name, n), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				sum := 0
				for i := 0; i < b.N; i++ {
					sum += searchRank(z, rng.Float64())
				}
				sampleSink = sum
			})
		}
	}
}

// sampleSink keeps BenchmarkSample's draws live.
var sampleSink int
