package workload

import (
	"bytes"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// searchRank is the binary search over the CDF that the guide table
// replaced, kept verbatim as the reference for rank: the first rank whose
// CDF reaches u, or n when none does.
func searchRank(z *zipfSampler, u float64) int {
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo + 1
}

// skewedWeights is a histogram at n nodes with every 13th weight zero.
func skewedWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = float64((i * 7919) % 13)
	}
	return w
}

// namedSampler is one sampler of a constructor, for tables over all three.
type namedSampler struct {
	name string
	z    *zipfSampler
}

// everySampler builds one sampler of each constructor at n ranks. The
// weight sampler has zero weights wherever a histogram may: at ranks 1
// and n and every 13th rank between from n = 4 on, and at rank 2 at
// n = 3 (a histogram needs two positive weights).
func everySampler(tb testing.TB, n int) []namedSampler {
	w := skewedWeights(n)
	switch n {
	case 2:
		w = []float64{2, 1}
	case 3:
		w = []float64{2, 0, 1}
	default:
		w[n-1] = 0
	}
	hist, err := newWeightSampler(w)
	if err != nil {
		tb.Fatal(err)
	}
	return []namedSampler{
		{"zipf", newZipfSampler(n, 1.1)},
		{"exponential", newExpSampler(n, 8)},
		{"weights", hist},
	}
}

// TestGuideTableMatchesSearch pins every draw to the binary search's
// rank: 10⁶ random draws per sampler, plus every CDF value, every cut
// j/m and the floats on either side of each, where an off-by-one start or
// step would show first.
func TestGuideTableMatchesSearch(t *testing.T) {
	for _, n := range []int{2, 3, 511, 2044, 65535} {
		for _, tc := range everySampler(t, n) {
			name, z := tc.name, tc.z
			// u·m and j/m are exact only for a power of two m.
			if m := len(z.guide); m < n || m&(m-1) != 0 || float64(m) != z.scale {
				t.Fatalf("%s n=%d: guide table of %d entries (scale %v), want a power of two ≥ n", name, n, m, z.scale)
			}
			check := func(u float64) {
				if u < 0 || u >= 1 {
					return
				}
				if got, want := z.rank(u), searchRank(z, u); got != want {
					t.Fatalf("%s n=%d: rank(%v) = %d, binary search %d", name, n, u, got, want)
				}
			}
			near := func(x float64) {
				check(math.Nextafter(x, -1))
				check(x)
				check(math.Nextafter(x, 2))
			}
			for _, c := range z.cdf {
				near(c)
			}
			for j := range z.guide {
				near(float64(j) / z.scale)
			}
			rng := rand.New(rand.NewSource(int64(n)))
			for i := 0; i < 1_000_000; i++ {
				check(rng.Float64())
			}
		}
	}
}

// streamHash is FNV-1a over every request's endpoints, in stream order.
func streamHash(tb testing.TB, g Generator) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for rq, err := range g.Requests() {
		if err != nil {
			tb.Fatal(err)
		}
		for i, x := range []int{rq.Src, rq.Dst} {
			buf[4*i], buf[4*i+1], buf[4*i+2], buf[4*i+3] = byte(x), byte(x>>8), byte(x>>16), byte(x>>24)
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestSamplingKindGoldens pins the stream of every kind that draws through
// the CDF sampler to hashes taken from the binary-search sampler the guide
// table replaced, at the sizes the benchmark workloads draw from.
func TestSamplingKindGoldens(t *testing.T) {
	const m = 200_000
	hist, err := HistogramGen(3000, m, skewedWeights(3000), 5)
	if err != nil {
		t.Fatal(err)
	}
	hist3, err := HistogramGen(3, m, []float64{2, 0, 1}, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		gen  Generator
		want uint64
	}{
		{"temporal/n=65535", TemporalGen(65535, m, 0.75, 1), 0xb758f1a3ef3f27},
		{"projector/n=511", ProjectorGen(511, m, 1), 0xfae70f1f8cdb20ee},
		{"facebook/n=1024", FacebookGen(1024, m, 1), 0x9af54b289e7bc3ce},
		{"zipf/n=2044", ZipfGen(2044, m, 1.1, 1), 0xa3210015ed554c2d},
		{"zipf/n=2", ZipfGen(2, m, 1.1, 1), 0x57aa0b55793437b5},
		{"exponential/n=511", ExponentialGen(511, m, 8, 1), 0xb5f21fd8c2f700fa},
		{"latest/n=511", LatestGen(511, m, 1.1, 1), 0x4fa316f5573db0bc},
		{"histogram/n=3000", hist, 0xfaadec95d48a940e},
		{"histogram/n=3", hist3, 0x2612b463307566a5},
	} {
		if got := streamHash(t, tc.gen); got != tc.want {
			t.Errorf("%s: stream hash %#x, want %#x", tc.name, got, tc.want)
		}
	}
}

// TestSpreadRejectsOneNodeDraws: parameters that put all but a sliver of
// an endpoint draw on one node would redraw self-loops forever, so the
// spread checks reject them and the generators panic on them.
func TestSpreadRejectsOneNodeDraws(t *testing.T) {
	for name, err := range map[string]error{
		"zipf s=40":              ZipfSpread(100, 40),
		"zipf s=1000":            ZipfSpread(100, 1000),
		"zipf s=NaN":             ZipfSpread(100, math.NaN()),
		"exponential s=2000":     ExponentialSpread(100, 2000),
		"exponential s=1e5":      ExponentialSpread(100, 1e5),
		"hotspot hotopn=1-1e-12": HotspotSpread(100, 0.01, 1-1e-12),
	} {
		if err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	for name, gen := range map[string]func() Generator{
		"ZipfGen":        func() Generator { return ZipfGen(100, 10, 40, 1) },
		"LatestGen":      func() Generator { return LatestGen(100, 10, 1000, 1) },
		"ExponentialGen": func() Generator { return ExponentialGen(100, 10, 2000, 1) },
		"HotspotGen":     func() Generator { return HotspotGen(100, 10, 0.01, 1-1e-12, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			gen()
		}()
	}
	// Skewed but spread enough: accepted, and a pass of ~2^19 redraws per
	// request ends.
	for _, err := range []error{ZipfSpread(100, 19), ExponentialSpread(100, 1000), HotspotSpread(100, 0.01, 1-1e-6)} {
		if err != nil {
			t.Error(err)
		}
	}
	pass(t, ZipfGen(100, 10, 19, 1))
}

// FuzzHistogramWeights feeds arbitrary bytes through ReadWeights and
// HistogramGen: each input must be rejected with an error or yield
// in-range, self-loop-free requests, and never panic or hang. On every
// accepted input, guide-table ranks must equal the binary search's.
func FuzzHistogramWeights(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		weights, err := ReadWeights(bytes.NewReader(data))
		if err != nil {
			return
		}
		g, err := HistogramGen(len(weights), 32, weights, 1)
		if err != nil {
			return
		}
		for rq, err := range g.Requests() {
			if err != nil {
				t.Fatal(err)
			}
			if rq.Src < 1 || rq.Src > len(weights) || rq.Dst < 1 || rq.Dst > len(weights) || rq.Src == rq.Dst {
				t.Fatalf("request %v over %d nodes", rq, len(weights))
			}
		}
		z, err := newWeightSampler(weights)
		if err != nil {
			t.Fatalf("HistogramGen accepted weights newWeightSampler rejects: %v", err)
		}
		rng := rand.New(rand.NewSource(int64(len(weights))))
		for i := 0; i < 4096; i++ {
			u := rng.Float64()
			if got, want := z.rank(u), searchRank(z, u); got != want {
				t.Fatalf("rank(%v) = %d, binary search %d", u, got, want)
			}
		}
	})
}
