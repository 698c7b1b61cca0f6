package workload

import (
	"bufio"
	"fmt"
	"io"
	"iter"
	"math/rand"
	"strconv"
	"strings"

	"github.com/ksan-net/ksan/internal/sim"
)

// This file ports the YCSB generator taxonomy (the yabf / scylla-bench
// lineage: hotspot, exponential, histogram-from-file, latest,
// sequential-visit-all) onto the streaming Generator interface, and adds
// the piece no YCSB clone has: Phased, which chains (generator, duration)
// phases into one drifting trace. Together with the trace-complexity kinds
// (Temporal, Zipf, ...) they let experiment files express moving demand —
// flash crowds, diurnal skew rotation, hot-set drift — which is exactly
// the regime where the paper's trigger×adjuster compositions separate.

// HotspotGen streams requests whose endpoints split the node space into a
// small hot set and a cold rest (YCSB's hotspot distribution): a fraction
// hotFrac of the nodes (scattered over the id space by a seeded
// permutation, so hot nodes are not id-adjacent and the tree actually has
// to move them) receives a fraction hotOpn of the endpoint draws; both
// sets are uniform inside. Each endpoint flips the hot coin independently;
// self-loops redraw the destination, coin included.
//
// HotspotSpread must accept n, hotFrac and hotOpn: both sets non-empty,
// hotOpn in (0,1), and a draw that can form pairs.
func HotspotGen(n, m int, hotFrac, hotOpn float64, seed int64) Generator {
	checkPairable("Hotspot", n)
	mustSpread(HotspotSpread(n, hotFrac, hotOpn))
	hot := int(hotFrac * float64(n))
	return &seqGen{label: fmt.Sprintf("hotspot-%.2f-%.2f", hotFrac, hotOpn), n: n, m: m, seed: seed,
		start: func(rng *rand.Rand) func() sim.Request {
			perm := rng.Perm(n) // perm[:hot] is the hot set, scattered over 1..n
			endpoint := func() int {
				if rng.Float64() < hotOpn {
					return perm[rng.Intn(hot)] + 1
				}
				return perm[hot+rng.Intn(n-hot)] + 1
			}
			return func() sim.Request {
				u := endpoint()
				v := endpoint()
				for v == u {
					v = endpoint()
				}
				return sim.Request{Src: u, Dst: v}
			}
		}}
}

// ExponentialGen streams requests whose endpoints decay exponentially over
// permuted ranks (YCSB's exponential distribution): rank r has weight
// exp(-s·(r-1)/n), so s sets how many e-foldings of popularity span the
// node space regardless of n. Like Zipf, both endpoints share one rank
// permutation; self-loops resample the destination, so ExponentialSpread
// must accept n and s.
func ExponentialGen(n, m int, s float64, seed int64) Generator {
	checkPairable("Exponential", n)
	if s <= 0 {
		panic(fmt.Sprintf("workload: exponential decay %v must be positive", s))
	}
	mustSpread(ExponentialSpread(n, s))
	return &seqGen{label: fmt.Sprintf("exponential-%.2f", s), n: n, m: m, seed: seed,
		start: func(rng *rand.Rand) func() sim.Request {
			perm := rng.Perm(n)
			exp := newExpSampler(n, s)
			return func() sim.Request {
				u := perm[exp.sample(rng)-1] + 1
				v := perm[exp.sample(rng)-1] + 1
				for v == u {
					v = perm[exp.sample(rng)-1] + 1
				}
				return sim.Request{Src: u, Dst: v}
			}
		}}
}

// HistogramGen streams requests whose endpoints follow an explicit node
// popularity histogram (YCSB's histogram-from-file distribution):
// weights[i] is the relative popularity of node i+1, so measured
// per-node demand drops in directly. There must be at least two weights,
// each finite and non-negative, with a finite total of which no node holds
// all but 2^-20 (spreadError), because self-loops resample the
// destination. The weights slice is captured, not copied — callers must
// not mutate it afterwards.
func HistogramGen(n, m int, weights []float64, seed int64) (Generator, error) {
	if n < 2 {
		return nil, fmt.Errorf("workload: histogram needs at least 2 nodes to form a request pair, got n=%d", n)
	}
	if len(weights) != n {
		return nil, fmt.Errorf("workload: histogram has %d weights for %d nodes", len(weights), n)
	}
	sampler, err := newWeightSampler(weights)
	if err != nil {
		return nil, err
	}
	return &seqGen{label: "histogram", n: n, m: m, seed: seed,
		start: func(rng *rand.Rand) func() sim.Request {
			return func() sim.Request {
				u := sampler.sample(rng)
				v := sampler.sample(rng)
				for v == u {
					v = sampler.sample(rng)
				}
				return sim.Request{Src: u, Dst: v}
			}
		}}, nil
}

// ReadWeights parses the node-popularity file of the histogram trace
// kind: one weight per line (line i holds node i's weight), with blank
// lines and #-comment lines skipped. Errors carry the line number.
func ReadWeights(r io.Reader) ([]float64, error) {
	var weights []float64
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		w, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, fmt.Errorf("workload: line %d: bad weight %q", line, s)
		}
		weights = append(weights, w)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: reading weights: %w", err)
	}
	return weights, nil
}

// LatestGen streams requests with recency-driven endpoint popularity
// (YCSB's "latest" distribution, adapted from keys to communication
// endpoints): endpoints are drawn by Zipf(s) *stack distance* over a
// most-recently-used list and moved to its front, so whichever nodes
// communicated recently are the likely endpoints of the next request and
// the hot set itself drifts as rare draws promote cold nodes. This is
// temporal locality over *nodes* where Temporal has it over *pairs*.
func LatestGen(n, m int, s float64, seed int64) Generator {
	checkPairable("Latest", n)
	if s <= 0 {
		panic(fmt.Sprintf("workload: latest skew %v must be positive", s))
	}
	mustSpread(ZipfSpread(n, s))
	return &seqGen{label: fmt.Sprintf("latest-%.2f", s), n: n, m: m, seed: seed,
		start: func(rng *rand.Rand) func() sim.Request {
			mru := rng.Perm(n) // mru[d] is the node (0-based) at stack distance d
			zipf := newZipfSampler(n, s)
			draw := func() (node, depth int) {
				d := zipf.sample(rng) - 1
				return mru[d], d
			}
			promote := func(node, depth int) {
				copy(mru[1:depth+1], mru[:depth])
				mru[0] = node
			}
			return func() sim.Request {
				u, du := draw()
				promote(u, du)
				v, dv := draw()
				for v == u {
					v, dv = draw()
				}
				promote(v, dv)
				return sim.Request{Src: u + 1, Dst: v + 1}
			}
		}}
}

// SequentialGen streams a deterministic lexicographic sweep over all
// ordered self-loop-free pairs (scylla-bench's sequential visit-everything
// mode): request i is pair i mod n·(n-1) of the sequence (1,2), (1,3), ...,
// (n,n-1), wrapping as often as m requires. It takes no seed — every pass
// is the same arithmetic — and is the worst case for demand-awareness:
// perfectly uniform demand with zero temporal locality, the regime where
// Lemma 9 says no self-adjusting network can beat the static tree.
func SequentialGen(n, m int) Generator {
	checkPairable("Sequential", n)
	return &seqGen{label: "sequential", n: n, m: m,
		start: func(*rand.Rand) func() sim.Request {
			i := -1
			return func() sim.Request {
				i++
				j := i % (n * (n - 1))
				u := j/(n-1) + 1
				v := j%(n-1) + 1
				if v >= u {
					v++
				}
				return sim.Request{Src: u, Dst: v}
			}
		}}
}

// Phase is one segment of a phased trace: M requests drawn from the front
// of Gen's stream.
type Phase struct {
	Gen Generator
	M   int
}

// PhasedGen chains phases into a single drifting stream: phase k
// contributes exactly its M requests, then the next phase starts — flash
// crowds, diurnal skew rotation, and hot-set drift are just phase lists.
// All phases must address the same node count, and no phase may promise
// fewer requests than its duration (generators of unknown length are
// checked at iteration time: a phase under-running its duration ends the
// stream with an error).
func PhasedGen(label string, phases []Phase) (Generator, error) {
	if len(phases) == 0 {
		return nil, fmt.Errorf("workload: phased trace needs at least one phase")
	}
	n := phases[0].Gen.Nodes()
	total := 0
	for i, ph := range phases {
		if ph.Gen.Nodes() != n {
			return nil, fmt.Errorf("workload: phase %d addresses %d nodes; phase 0 addresses %d", i, ph.Gen.Nodes(), n)
		}
		if ph.M <= 0 {
			return nil, fmt.Errorf("workload: phase %d duration %d must be positive", i, ph.M)
		}
		if l := ph.Gen.Len(); l != UnknownLen && l < ph.M {
			return nil, fmt.Errorf("workload: phase %d generator %q yields %d requests; duration needs %d", i, ph.Gen.Label(), l, ph.M)
		}
		total += ph.M
	}
	if label == "" {
		label = "phased"
	}
	return &phasedGen{label: label, n: n, m: total, phases: phases}, nil
}

type phasedGen struct {
	label  string
	n, m   int
	phases []Phase
}

func (g *phasedGen) Label() string { return g.label }
func (g *phasedGen) Nodes() int    { return g.n }
func (g *phasedGen) Len() int      { return g.m }

func (g *phasedGen) Requests() iter.Seq2[sim.Request, error] {
	return func(yield func(sim.Request, error) bool) {
		for i, ph := range g.phases {
			taken := 0
			for rq, err := range ph.Gen.Requests() {
				if err != nil {
					yield(sim.Request{}, fmt.Errorf("workload: phase %d (%s): %w", i, ph.Gen.Label(), err))
					return
				}
				if !yield(rq, nil) {
					return
				}
				if taken++; taken == ph.M {
					break
				}
			}
			if taken < ph.M {
				yield(sim.Request{}, fmt.Errorf("workload: phase %d (%s) yielded %d of %d requests", i, ph.Gen.Label(), taken, ph.M))
				return
			}
		}
	}
}
