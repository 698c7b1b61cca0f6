package workload

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/ksan-net/ksan/internal/sim"
)

func TestUniformBasics(t *testing.T) {
	tr := Uniform(100, 5000, 1)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 5000 || tr.N != 100 {
		t.Fatalf("unexpected shape %d/%d", tr.Len(), tr.N)
	}
	st := Measure(tr)
	// Uniform over 100 nodes: marginals near log2(100) ≈ 6.64 bits.
	if st.SrcEntropy < 6.3 || st.SrcEntropy > 6.7 {
		t.Errorf("uniform source entropy %.2f implausible", st.SrcEntropy)
	}
	if st.RepeatFraction > 0.01 {
		t.Errorf("uniform repeat fraction %.3f too high", st.RepeatFraction)
	}
}

func TestUniformCoversAllNodes(t *testing.T) {
	tr := Uniform(30, 20000, 2)
	seen := make([]bool, 31)
	for _, rq := range tr.Reqs {
		seen[rq.Src] = true
		seen[rq.Dst] = true
	}
	for id := 1; id <= 30; id++ {
		if !seen[id] {
			t.Errorf("node %d never communicates in a 20k-request uniform trace", id)
		}
	}
}

func TestTemporalRepeatFractionMatchesParameter(t *testing.T) {
	for _, p := range []float64{0.25, 0.5, 0.75, 0.9} {
		tr := Temporal(1023, 40000, p, 3)
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		st := Measure(tr)
		if math.Abs(st.RepeatFraction-p) > 0.02 {
			t.Errorf("temporal(%.2f): measured repeat fraction %.3f", p, st.RepeatFraction)
		}
	}
}

func TestRepeatFractionUnbiasedOnShortTraces(t *testing.T) {
	rq := func(u, v int) sim.Request { return sim.Request{Src: u, Dst: v} }
	for _, tc := range []struct {
		name string
		reqs []sim.Request
		want float64
	}{
		{"empty", nil, 0},
		{"single", []sim.Request{rq(1, 2)}, 0}, // no predecessor: nothing can repeat
		{"all-repeats", []sim.Request{rq(1, 2), rq(1, 2), rq(1, 2)}, 1},
		{"half", []sim.Request{rq(1, 2), rq(1, 2), rq(2, 3)}, 0.5},
	} {
		st := Measure(Trace{N: 3, Reqs: tc.reqs})
		if st.RepeatFraction != tc.want {
			t.Errorf("%s: repeat fraction %.3f, want %.3f (must divide by m-1, not m)",
				tc.name, st.RepeatFraction, tc.want)
		}
	}
}

func TestTemporalRejectsBadParameter(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Temporal(p=1) should panic")
		}
	}()
	Temporal(10, 10, 1.0, 0)
}

func TestGeneratorsSmallN(t *testing.T) {
	// n=1 cannot form a self-loop-free pair: the static-pair generators used
	// to crash on pairs[0] when every partner draw collided, and Zipf's
	// successor remap produced self-loops. All must now reject n=1 with a
	// clear panic and produce valid, full-length traces for n=2 and n=3.
	gens := map[string]func(n int) Trace{
		"projector": func(n int) Trace { return ProjecToRLike(n, 500, 1) },
		"facebook":  func(n int) Trace { return FacebookLike(n, 500, 1) },
		"zipf":      func(n int) Trace { return Zipf(n, 500, 1.1, 1) },
	}
	for name, gen := range gens {
		for n := 1; n <= 3; n++ {
			func() {
				defer func() {
					r := recover()
					if n == 1 {
						if r == nil {
							t.Errorf("%s(n=1) did not panic", name)
						} else if msg, ok := r.(string); !ok || !strings.Contains(msg, "at least 2 nodes") {
							t.Errorf("%s(n=1) panic %v lacks a clear message", name, r)
						}
						return
					}
					if r != nil {
						t.Errorf("%s(n=%d) panicked: %v", name, n, r)
					}
				}()
				tr := gen(n)
				if err := tr.Validate(); err != nil {
					t.Errorf("%s(n=%d): %v", name, n, err)
				}
				if tr.Len() != 500 {
					t.Errorf("%s(n=%d): %d requests, want 500", name, n, tr.Len())
				}
			}()
		}
	}
}

func TestZipfResamplesSelfLoopsWithoutSuccessorBias(t *testing.T) {
	// The old self-loop remap v = 1+v%n redirected every u→u collision onto
	// u's successor, so P(dst=succ(u) | src=u) absorbed all of u's own
	// popularity mass on top of succ(u)'s. With resampling, dst given
	// src=u must follow the sampler's weights restricted to ≠u:
	// P(dst=v | src=u) = W_v / (1−W_u). The source marginal is a pure
	// sampler draw in both the old and the new code, so the empirical
	// source shares estimate W and anchor the check.
	const n, m = 3, 60000
	tr := Zipf(n, m, 1.3, 11)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	srcCnt := make([]float64, n+1)
	pair := make([][]float64, n+1)
	for u := range pair {
		pair[u] = make([]float64, n+1)
	}
	for _, rq := range tr.Reqs {
		srcCnt[rq.Src]++
		pair[rq.Src][rq.Dst]++
	}
	w := make([]float64, n+1)
	for u := 1; u <= n; u++ {
		w[u] = srcCnt[u] / m
	}
	for u := 1; u <= n; u++ {
		for v := 1; v <= n; v++ {
			if v == u || srcCnt[u] == 0 {
				continue
			}
			got := pair[u][v] / srcCnt[u]
			want := w[v] / (1 - w[u])
			if math.Abs(got-want) > 0.03 {
				t.Errorf("P(dst=%d|src=%d) = %.3f, want ≈ %.3f (W restricted to ≠src); successor-remap bias?",
					v, u, got, want)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	gens := map[string]func(seed int64) Trace{
		"uniform":   func(s int64) Trace { return Uniform(50, 1000, s) },
		"temporal":  func(s int64) Trace { return Temporal(50, 1000, 0.5, s) },
		"hpc":       func(s int64) Trace { return HPCLike(64, 1000, s) },
		"projector": func(s int64) Trace { return ProjecToRLike(50, 1000, s) },
		"facebook":  func(s int64) Trace { return FacebookLike(200, 1000, s) },
		"zipf":      func(s int64) Trace { return Zipf(50, 1000, 1.1, s) },
	}
	for name, gen := range gens {
		a, b := gen(7), gen(7)
		if len(a.Reqs) != len(b.Reqs) {
			t.Fatalf("%s: lengths differ", name)
		}
		for i := range a.Reqs {
			if a.Reqs[i] != b.Reqs[i] {
				t.Fatalf("%s: not deterministic at request %d", name, i)
			}
		}
		c := gen(8)
		same := true
		for i := range a.Reqs {
			if a.Reqs[i] != c.Reqs[i] {
				same = false
				break
			}
		}
		if same {
			t.Errorf("%s: different seeds produced identical traces", name)
		}
	}
}

func TestTraceLocalityOrdering(t *testing.T) {
	// Qualitative trace-complexity ordering: the Facebook-like trace has
	// the lowest temporal locality of the three (the paper groups it with
	// its low-locality traces), and the HPC-like trace is the most
	// spatially concentrated (its stencil uses the fewest distinct pairs
	// per node).
	hpc := Measure(HPCLike(500, 30000, 1))
	proj := Measure(ProjecToRLike(100, 30000, 1))
	fb := Measure(FacebookLike(2000, 30000, 1))
	if fb.RepeatFraction >= proj.RepeatFraction || fb.RepeatFraction >= hpc.RepeatFraction {
		t.Errorf("facebook repeat fraction %.3f not the lowest (hpc %.3f, proj %.3f)",
			fb.RepeatFraction, hpc.RepeatFraction, proj.RepeatFraction)
	}
	// Spatial concentration at matched n and m: the stencil trace exchanges
	// with rank-adjacent processes, so its mean |src−dst| id distance must
	// be far below the service-dependency trace's (whose partners are
	// random in id space).
	meanIDDist := func(tr Trace) float64 {
		var sum float64
		for _, rq := range tr.Reqs {
			d := rq.Src - rq.Dst
			if d < 0 {
				d = -d
			}
			sum += float64(d)
		}
		return sum / float64(tr.Len())
	}
	hpcTr := HPCLike(500, 30000, 2)
	fbTr := FacebookLike(500, 30000, 2)
	if h, f := meanIDDist(hpcTr), meanIDDist(fbTr); h*3 >= f {
		t.Errorf("hpc mean id distance %.1f not ≪ facebook's %.1f", h, f)
	}
}

func TestHPCSpatialLocality(t *testing.T) {
	// Stencil exchanges: most non-repeat requests connect torus neighbours,
	// so the number of distinct pairs must be tiny relative to n².
	tr := HPCLike(512, 50000, 4)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	st := Measure(tr)
	if st.DistinctPairs > 512*8*2 {
		t.Errorf("hpc trace uses %d distinct pairs, expected a sparse neighbour set", st.DistinctPairs)
	}
}

func TestProjecToRSparseAndSkewed(t *testing.T) {
	tr := ProjecToRLike(100, 50000, 5)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	st := Measure(tr)
	if st.DistinctPairs > 100*7 {
		t.Errorf("projector demand not sparse: %d distinct pairs", st.DistinctPairs)
	}
	if st.Top8PairShare < 0.15 {
		t.Errorf("projector demand not skewed: top-8 share %.3f", st.Top8PairShare)
	}
}

func TestFacebookWide(t *testing.T) {
	tr := FacebookLike(5000, 50000, 6)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	st := Measure(tr)
	if st.DistinctPairs < 5000 {
		t.Errorf("facebook trace too narrow: %d distinct pairs", st.DistinctPairs)
	}
	if st.RepeatFraction > 0.1 {
		t.Errorf("facebook repeat fraction %.3f too high", st.RepeatFraction)
	}
}

// TestZipfSampler draws ranks and compares each rank's
// frequency with its CDF step, so a search bug the reference shares
// still fails: every rank lies within five standard deviations of its
// probability, and a zero-weight rank is never drawn.
func TestZipfSampler(t *testing.T) {
	const draws = 1_000_000
	for _, tc := range everySampler(t, 100) {
		name, z := tc.name, tc.z
		counts := make([]int, len(z.cdf)+1)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < draws; i++ {
			counts[z.sample(rng)]++
		}
		prev := 0.0
		for r, c := range z.cdf {
			p := c - prev
			prev = c
			got := float64(counts[r+1]) / draws
			if sd := math.Sqrt(p * (1 - p) / draws); math.Abs(got-p) > 5*sd {
				t.Errorf("%s: rank %d drawn %.5f of the time, CDF step %.5f (sd %.5f)", name, r+1, got, p, sd)
			}
		}
	}
}

// requestsOf converts a demand matrix back into a request sequence, each
// pair repeated by its count, in pair order.
func requestsOf(d *Demand) []sim.Request {
	reqs := make([]sim.Request, 0, d.Total)
	for _, pc := range d.Pairs {
		for c := int64(0); c < pc.Count; c++ {
			reqs = append(reqs, sim.Request{Src: pc.Src, Dst: pc.Dst})
		}
	}
	return reqs
}

func TestDemandFromTraceRoundTrip(t *testing.T) {
	tr := Temporal(40, 5000, 0.5, 9)
	d := DemandFromTrace(tr)
	if d.Total != int64(tr.Len()) {
		t.Fatalf("demand total %d != trace length %d", d.Total, tr.Len())
	}
	back := requestsOf(d)
	if len(back) != tr.Len() {
		t.Fatalf("requests round-trip length %d != %d", len(back), tr.Len())
	}
	d2 := DemandFromTrace(Trace{N: 40, Reqs: back})
	if len(d2.Pairs) != len(d.Pairs) {
		t.Fatalf("pair counts changed in round trip")
	}
	for i := range d.Pairs {
		if d.Pairs[i] != d2.Pairs[i] {
			t.Fatalf("pair %d changed in round trip", i)
		}
	}
}

func TestUniformDemand(t *testing.T) {
	d := UniformDemand(10)
	if d.Total != 45 {
		t.Errorf("uniform demand total %d, want 45", d.Total)
	}
	for _, pc := range d.Pairs {
		if pc.Src >= pc.Dst || pc.Count != 1 {
			t.Errorf("bad uniform pair %+v", pc)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := ProjecToRLike(30, 200, 13)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != tr.Name || back.N != tr.N || back.Len() != tr.Len() {
		t.Fatalf("metadata mismatch: %q/%d/%d vs %q/%d/%d",
			back.Name, back.N, back.Len(), tr.Name, tr.N, tr.Len())
	}
	for i := range tr.Reqs {
		if tr.Reqs[i] != back.Reqs[i] {
			t.Fatalf("request %d changed in CSV round trip", i)
		}
	}
}

func TestCSVRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"",
		"src,dst\n1,2\n",
		"#t,notanumber\nsrc,dst\n",
		"#t,5\nsrc,dst\n9,1\n", // out of range
		"#t,5\nsrc,dst\n2,2\n", // self loop
	} {
		if _, err := ReadCSV(bytes.NewBufferString(in)); err == nil {
			t.Errorf("ReadCSV accepted %q", in)
		}
	}
}

func TestEntropyBoundScalesWithSkew(t *testing.T) {
	// The Theorem-13 bound must be lower for skewed traffic than uniform.
	uni := EntropyBound(Uniform(256, 20000, 1))
	skew := EntropyBound(Zipf(256, 20000, 1.4, 1))
	if skew >= uni {
		t.Errorf("entropy bound: zipf %.0f not below uniform %.0f", skew, uni)
	}
}

func TestMeasureEmptyTrace(t *testing.T) {
	st := Measure(Trace{N: 5})
	if st.Requests != 0 || st.DistinctPairs != 0 {
		t.Errorf("empty trace stats %+v", st)
	}
}

func TestCubeDims(t *testing.T) {
	for _, n := range []int{1, 8, 27, 64, 100, 500, 512, 1000} {
		d := cubeDims(n)
		if d[0]*d[1]*d[2] < n {
			t.Errorf("cubeDims(%d)=%v volume too small", n, d)
		}
		if d[0]*d[1]*d[2] > 4*n+4 {
			t.Errorf("cubeDims(%d)=%v volume too loose", n, d)
		}
	}
}
