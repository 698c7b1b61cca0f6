// Package workload provides the communication workloads of the paper's
// evaluation (Section 5): the uniform workload, the synthetic
// temporal-locality workloads, and trace-like generators that substitute
// for the three real datasets (DOE HPC mini-apps, ProjecToR, and Facebook
// datacenter traces), which are not available offline. The substitutions
// preserve the properties the paper's analysis relies on — temporal
// locality, spatial locality, sparsity and skew (the trace-complexity axes
// of Avin et al. that the paper cites) — and are documented in DESIGN.md.
//
// Every workload is a streaming Generator: a deterministic, resettable
// request stream (see the Generator contract) that consumers iterate
// without ever materializing the full trace, plus a YCSB-grade taxonomy
// (hotspot, exponential, histogram, latest, sequential) and declaratively
// phased drifting scenarios (Phased) on top. The historical materializing
// functions (Uniform, Temporal, ...) remain as thin Collect wrappers and
// produce bit-identical request slices.
//
// All generators are deterministic in their seed.
package workload

import (
	"fmt"
	"math/rand"

	"github.com/ksan-net/ksan/internal/sim"
)

// Trace is a finite communication sequence σ over nodes 1..N, the fully
// materialized form of a Generator (and itself the trivial Generator).
type Trace struct {
	// Name labels the workload in reports (e.g. "temporal-0.75").
	Name string
	// N is the number of network nodes.
	N int
	// Reqs is the request sequence.
	Reqs []sim.Request
}

// Len returns the number of requests.
func (tr Trace) Len() int { return len(tr.Reqs) }

// Validate checks all endpoints lie in 1..N and no request is a self-loop.
func (tr Trace) Validate() error {
	for i, rq := range tr.Reqs {
		if err := rq.CheckRange(i, tr.N); err != nil {
			return fmt.Errorf("workload: %w", err)
		}
		if rq.Src == rq.Dst {
			return fmt.Errorf("workload: request %d is a self-loop at %d", i, rq.Src)
		}
	}
	return nil
}

// UniformGen streams m requests with both endpoints uniform over 1..n (no
// self-loops): the all-to-all pattern of Section 3's uniform workload.
func UniformGen(n, m int, seed int64) Generator {
	checkPairable("Uniform", n)
	return &seqGen{label: "uniform", n: n, m: m, seed: seed,
		start: func(rng *rand.Rand) func() sim.Request {
			return func() sim.Request { return randomPair(n, rng) }
		}}
}

// Uniform is the materialized form of UniformGen.
func Uniform(n, m int, seed int64) Trace { return MustCollect(UniformGen(n, m, seed)) }

// TemporalGen streams the paper's synthetic workload with temporal
// complexity parameter p: with probability p the previous request is
// repeated (the definition the paper takes from Avin et al.), otherwise a
// fresh pair is drawn with mildly Zipf-skewed endpoints (s=0.9 over
// independently permuted ranks).
//
// The skew of the fresh draws is a documented calibration (DESIGN.md): the
// paper's Tables 4–7 show the demand-aware optimal tree beating the full
// tree by ≈1.8× on these workloads, which is impossible under uniform
// fresh draws — Lemma 9 pins the uniform-demand optimum within O(n²) of
// the full tree — so the source generator of Avin et al. must skew the
// non-repeat traffic. The repeat semantics match the paper exactly.
func TemporalGen(n, m int, p float64, seed int64) Generator {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("workload: temporal parameter %v outside [0,1)", p))
	}
	checkPairable("Temporal", n)
	return &seqGen{label: fmt.Sprintf("temporal-%.2f", p), n: n, m: m, seed: seed,
		start: func(rng *rand.Rand) func() sim.Request {
			permSrc := rng.Perm(n)
			permDst := rng.Perm(n)
			zipf := newZipfSampler(n, 0.9)
			fresh := func() sim.Request {
				u := permSrc[zipf.sample(rng)-1] + 1
				v := permDst[zipf.sample(rng)-1] + 1
				for v == u {
					v = permDst[zipf.sample(rng)-1] + 1
				}
				return sim.Request{Src: u, Dst: v}
			}
			// The pre-stream draw mirrors the historical generator: its
			// value is superseded by the first request's own fresh draw,
			// but its rng consumption is part of the pinned stream.
			last := fresh()
			i := -1
			return func() sim.Request {
				i++
				if i > 0 && rng.Float64() < p {
					return last
				}
				last = fresh()
				return last
			}
		}}
}

// Temporal is the materialized form of TemporalGen.
func Temporal(n, m int, p float64, seed int64) Trace {
	return MustCollect(TemporalGen(n, m, p, seed))
}

// randomPair draws a uniform ordered pair with distinct endpoints.
func randomPair(n int, rng *rand.Rand) sim.Request {
	u := 1 + rng.Intn(n)
	v := 1 + rng.Intn(n-1)
	if v >= u {
		v++
	}
	return sim.Request{Src: u, Dst: v}
}
