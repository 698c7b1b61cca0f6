package workload

import (
	"fmt"
	"math/rand"

	"github.com/ksan-net/ksan/internal/sim"
)

// checkPairable rejects node counts that cannot form a single self-loop-free
// request. Generators panic on invalid parameters (matching Temporal's
// contract): before this guard, ProjecToRLike and FacebookLike crashed on an
// out-of-range pairs[0] read when every partner draw collided, and Zipf's
// self-loop remap could not terminate meaningfully for n=1.
func checkPairable(gen string, n int) {
	if n < 2 {
		panic(fmt.Sprintf("workload: %s needs at least 2 nodes to form a request pair, got n=%d", gen, n))
	}
}

// mustSpread panics with a spread check's error: a generator whose
// endpoint draw fails it would redraw self-loops forever.
func mustSpread(err error) {
	if err != nil {
		panic(err.Error())
	}
}

// HPCLike substitutes for the DOE mini-app traces used by the paper
// (500 nodes in their setup). HPC applications exchange messages along a
// process grid with strong spatial locality (stencil neighbours), strong
// temporal locality (iterative solvers repeat the same exchanges), and
// occasional butterfly-pattern collectives (rank XOR 2^j partners). The
// generator models exactly those three ingredients:
//
//   - with probability 0.15 the previous request repeats (bursts),
//   - otherwise the source persists with probability 0.75 and the
//     destination is a 3-D torus neighbour of the source, dominated by the
//     x-axis (the stencil sweep direction, so rank-adjacent processes
//     exchange most: the spatial concentration that lets the paper's
//     optimal static tree beat the self-adjusting networks on HPC,
//     Table 1 row 3),
//   - with probability 0.06 the destination is instead a butterfly partner.
//
// The locality here is primarily *spatial* (a near-static sparse stencil),
// which is exactly why Table 8 shows SplayNet slightly ahead of 3-SplayNet
// on HPC: the fixed centroids cut across the stencil's id-adjacent pairs.
func HPCGen(n, m int, seed int64) Generator {
	checkPairable("HPCLike", n)
	return &seqGen{label: "hpc", n: n, m: m, seed: seed,
		start: func(rng *rand.Rand) func() sim.Request {
			dims := cubeDims(n)
			src := 1 + rng.Intn(n)
			last := sim.Request{}
			i := -1
			return func() sim.Request {
				i++
				if i > 0 && rng.Float64() < 0.15 {
					return last
				}
				if rng.Float64() >= 0.75 {
					src = 1 + rng.Intn(n)
				}
				var dst int
				if rng.Float64() < 0.06 {
					dst = butterflyPartner(src, n, rng)
				} else {
					dst = torusNeighbor(src, n, dims, rng)
				}
				if dst == src {
					dst = 1 + src%n
				}
				last = sim.Request{Src: src, Dst: dst}
				return last
			}
		}}
}

// HPCLike is the materialized form of HPCGen.
func HPCLike(n, m int, seed int64) Trace { return MustCollect(HPCGen(n, m, seed)) }

// cubeDims factors n into three near-equal dimensions dx*dy*dz >= n.
func cubeDims(n int) [3]int {
	d := 1
	for d*d*d < n {
		d++
	}
	dims := [3]int{d, d, d}
	// Shrink dimensions while the volume still covers n.
	for i := 0; i < 3; i++ {
		for dims[i] > 1 {
			dims[i]--
			if dims[0]*dims[1]*dims[2] < n {
				dims[i]++
				break
			}
		}
	}
	return dims
}

// torusNeighbor returns a ±1 neighbour of rank src-1 in a dims torus,
// skipping coordinates that fall outside 1..n (ragged last plane). The
// x-axis (consecutive ranks) dominates with weight 0.7, matching the sweep
// direction of stencil codes.
func torusNeighbor(src, n int, dims [3]int, rng *rand.Rand) int {
	r := src - 1
	x := r % dims[0]
	y := (r / dims[0]) % dims[1]
	z := r / (dims[0] * dims[1])
	for try := 0; try < 8; try++ {
		axis := 0
		if p := rng.Float64(); p >= 0.7 {
			if p < 0.9 {
				axis = 1
			} else {
				axis = 2
			}
		}
		dir := 1 - 2*rng.Intn(2)
		nx, ny, nz := x, y, z
		switch axis {
		case 0:
			nx = (x + dir + dims[0]) % dims[0]
		case 1:
			ny = (y + dir + dims[1]) % dims[1]
		default:
			nz = (z + dir + dims[2]) % dims[2]
		}
		nb := nz*dims[0]*dims[1] + ny*dims[0] + nx + 1
		if nb >= 1 && nb <= n && nb != src {
			return nb
		}
	}
	return 1 + rng.Intn(n)
}

// butterflyPartner returns src XOR 2^j clamped into range, the exchange
// partner of power-of-two collectives (allreduce, FFT transposes).
func butterflyPartner(src, n int, rng *rand.Rand) int {
	bits := 0
	for 1<<(bits+1) <= n {
		bits++
	}
	if bits == 0 {
		return 1 + rng.Intn(n)
	}
	p := ((src - 1) ^ (1 << rng.Intn(bits))) + 1
	if p < 1 || p > n {
		return 1 + rng.Intn(n)
	}
	return p
}

// ProjecToRLike substitutes for the ProjecToR/Microsoft datacenter trace
// (100 nodes in the paper's setup). ProjecToR reports sparse, heavily
// skewed rack-to-rack demand: a few stable rack pairs (elephants) carry
// most of the traffic. The generator fixes a static sparse demand graph
// (two to six partners per source) with Zipf-distributed pair popularity
// (s=1.1) and moderate burstiness (repeat probability 0.25) — the
// medium-to-low temporal locality regime where the paper's centroid
// networks win (Table 8). The skew is deliberately moderate: with extreme
// pair skew SplayNet pins the few elephants at distance one and wins,
// while the many-warm-pairs regime rewards the centroid net's bounded,
// subtree-local adjustments.
func ProjectorGen(n, m int, seed int64) Generator {
	checkPairable("ProjecToRLike", n)
	return &seqGen{label: "projector", n: n, m: m, seed: seed,
		start: pairPopulationStart(n, 2, 5, 4, 0.25)}
}

// ProjecToRLike is the materialized form of ProjectorGen.
func ProjecToRLike(n, m int, seed int64) Trace { return MustCollect(ProjectorGen(n, m, seed)) }

// pairPopulationStart builds the shared per-pass state of the static-pair-
// population traces (ProjecToR, Facebook): each source draws minPartners +
// Intn(spread) uniform partners, the pair list is shuffled, pair popularity
// is Zipf(1.1) over the shuffled order, and the previous request repeats
// with probability repeat. The per-pass cost is O(pairs) memory — the static
// demand graph, not the trace.
func pairPopulationStart(n, minPartners, spread, capPerNode int, repeat float64) func(rng *rand.Rand) func() sim.Request {
	return func(rng *rand.Rand) func() sim.Request {
		pairs := make([]sim.Request, 0, capPerNode*n)
		for u := 1; u <= n; u++ {
			partners := minPartners + rng.Intn(spread)
			for p := 0; p < partners; p++ {
				v := samplePartner(u, n, rng)
				pairs = append(pairs, sim.Request{Src: u, Dst: v})
			}
		}
		rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
		zipf := newZipfSampler(len(pairs), 1.1)
		last := pairs[0]
		i := -1
		return func() sim.Request {
			i++
			if i > 0 && rng.Float64() < repeat {
				return last
			}
			last = pairs[zipf.sample(rng)-1]
			return last
		}
	}
}

// FacebookLike substitutes for the Facebook datacenter trace (10^4 nodes in
// the paper's setup). Roy et al. report wide but structured communication:
// service dependencies (web→cache, cache→db) form a large yet stable set
// of rack pairs with heavy-tailed popularity, and temporal locality is low
// (the paper groups Facebook with its low-locality traces; its Table 8
// average request cost of 8.2 on 10⁴ nodes — well below the oblivious
// ~2·log₂ n — implies hot pairs dominate). The generator fixes a static
// pair population of about 6 pairs per node with Zipf popularity (s=1.1)
// and a small repeat probability (0.05).
func FacebookGen(n, m int, seed int64) Generator {
	checkPairable("FacebookLike", n)
	return &seqGen{label: "facebook", n: n, m: m, seed: seed,
		start: pairPopulationStart(n, 3, 7, 6, 0.05)}
}

// FacebookLike is the materialized form of FacebookGen.
func FacebookLike(n, m int, seed int64) Trace { return MustCollect(FacebookGen(n, m, seed)) }

// Zipf draws m requests with both endpoints Zipf(s)-distributed over
// independently permuted ranks; a generic skewed workload used in tests and
// examples. Self-loop collisions resample the destination (the former
// "successor node" remap leaked the source's popularity mass onto a fixed
// neighbour, distorting the destination marginal), so ZipfSpread must
// accept n and s.
func ZipfGen(n, m int, s float64, seed int64) Generator {
	checkPairable("Zipf", n)
	mustSpread(ZipfSpread(n, s))
	return &seqGen{label: "zipf", n: n, m: m, seed: seed,
		start: func(rng *rand.Rand) func() sim.Request {
			perm := rng.Perm(n)
			zipf := newZipfSampler(n, s)
			return func() sim.Request {
				u := perm[zipf.sample(rng)-1] + 1
				v := perm[zipf.sample(rng)-1] + 1
				for v == u {
					v = perm[zipf.sample(rng)-1] + 1
				}
				return sim.Request{Src: u, Dst: v}
			}
		}}
}

// Zipf is the materialized form of ZipfGen.
func Zipf(n, m int, s float64, seed int64) Trace { return MustCollect(ZipfGen(n, m, s, seed)) }

// samplePartner draws a uniform partner for u, resampling self-loops. The
// former "skip the slot on collision" scheme silently dropped partners — a
// bias at any n, and a crash (an empty static pair set) for tiny n.
func samplePartner(u, n int, rng *rand.Rand) int {
	v := 1 + rng.Intn(n)
	for v == u {
		v = 1 + rng.Intn(n)
	}
	return v
}
