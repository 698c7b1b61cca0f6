package workload

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/ksan-net/ksan/internal/sim"
)

// allGenerators is one instance of every streaming kind, used by the
// contract tests below. CSV is added separately (it needs a file).
func allGenerators(t *testing.T) map[string]Generator {
	t.Helper()
	hist, err := HistogramGen(8, 400, []float64{5, 4, 3, 2, 1, 1, 1, 1}, 5)
	if err != nil {
		t.Fatal(err)
	}
	phased, err := PhasedGen("drift", []Phase{
		{Gen: HotspotGen(16, 300, 0.25, 0.9, 1), M: 300},
		{Gen: HotspotGen(16, 300, 0.25, 0.9, 2), M: 300},
	})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Generator{
		"uniform":     UniformGen(20, 400, 3),
		"temporal":    TemporalGen(20, 400, 0.6, 3),
		"hpc":         HPCGen(32, 400, 3),
		"projector":   ProjectorGen(20, 400, 3),
		"facebook":    FacebookGen(64, 400, 3),
		"zipf":        ZipfGen(20, 400, 1.2, 3),
		"hotspot":     HotspotGen(20, 400, 0.2, 0.85, 3),
		"exponential": ExponentialGen(20, 400, 4, 3),
		"latest":      LatestGen(20, 400, 1.1, 3),
		"sequential":  SequentialGen(9, 400),
		"histogram":   hist,
		"phased":      phased,
	}
}

// TestGeneratorPassesAreIdentical pins the reset contract: every call to
// Requests() is an independent pass over the same stream, so two passes
// (sequential or abandoned halfway) must yield identical requests.
func TestGeneratorPassesAreIdentical(t *testing.T) {
	for name, g := range allGenerators(t) {
		first, err := Collect(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.Len() >= 0 && first.Len() != g.Len() {
			t.Fatalf("%s: Len()=%d but the stream yielded %d", name, g.Len(), first.Len())
		}
		// Abandon a pass halfway; the next full pass must be unaffected.
		taken := 0
		for range g.Requests() {
			if taken++; taken == first.Len()/2 {
				break
			}
		}
		second, err := Collect(g)
		if err != nil {
			t.Fatalf("%s: second pass: %v", name, err)
		}
		if len(second.Reqs) != len(first.Reqs) {
			t.Fatalf("%s: passes differ in length: %d vs %d", name, len(first.Reqs), len(second.Reqs))
		}
		for i := range first.Reqs {
			if first.Reqs[i] != second.Reqs[i] {
				t.Fatalf("%s: passes diverge at request %d: %v vs %v",
					name, i, first.Reqs[i], second.Reqs[i])
			}
		}
		if err := first.Validate(); err != nil {
			t.Errorf("%s: invalid stream: %v", name, err)
		}
	}
}

// TestLegacyConstructorsMatchStreams pins the tentpole's bit-identity
// claim from the other side: the materialized constructors are the
// collected streams, request for request.
func TestLegacyConstructorsMatchStreams(t *testing.T) {
	pairs := map[string]struct {
		tr  Trace
		gen Generator
	}{
		"uniform":   {Uniform(50, 800, 7), UniformGen(50, 800, 7)},
		"temporal":  {Temporal(50, 800, 0.75, 7), TemporalGen(50, 800, 0.75, 7)},
		"hpc":       {HPCLike(64, 800, 7), HPCGen(64, 800, 7)},
		"projector": {ProjecToRLike(50, 800, 7), ProjectorGen(50, 800, 7)},
		"facebook":  {FacebookLike(128, 800, 7), FacebookGen(128, 800, 7)},
		"zipf":      {Zipf(50, 800, 1.1, 7), ZipfGen(50, 800, 1.1, 7)},
	}
	for name, p := range pairs {
		got := MustCollect(p.gen)
		if got.Name != p.tr.Name || got.N != p.tr.N || got.Len() != p.tr.Len() {
			t.Fatalf("%s: stream shape %q/%d/%d vs trace %q/%d/%d",
				name, got.Name, got.N, got.Len(), p.tr.Name, p.tr.N, p.tr.Len())
		}
		for i := range got.Reqs {
			if got.Reqs[i] != p.tr.Reqs[i] {
				t.Fatalf("%s: stream diverges from materialized trace at request %d", name, i)
			}
		}
	}
}

func TestHotspotConcentratesTraffic(t *testing.T) {
	const n, m = 50, 40000
	const hotFrac, hotOpn = 0.1, 0.9
	g := HotspotGen(n, m, hotFrac, hotOpn, 9)
	counts := make(map[int]int, n)
	total := 0
	for rq, err := range g.Requests() {
		if err != nil {
			t.Fatal(err)
		}
		counts[rq.Src]++
		counts[rq.Dst]++
		total += 2
	}
	// The 5 hottest nodes should hold ≈ hotOpn of the endpoint mass (the
	// self-loop redraw shifts it slightly; allow a loose band).
	hot := int(hotFrac * n)
	top := make([]int, 0, n)
	for _, c := range counts {
		top = append(top, c)
	}
	for i := 0; i < hot; i++ {
		for j := i + 1; j < len(top); j++ {
			if top[j] > top[i] {
				top[i], top[j] = top[j], top[i]
			}
		}
	}
	share := 0.0
	for i := 0; i < hot; i++ {
		share += float64(top[i])
	}
	share /= float64(total)
	if math.Abs(share-hotOpn) > 0.05 {
		t.Errorf("hot set holds %.3f of endpoint draws, want ≈ %.2f", share, hotOpn)
	}
}

func TestHotspotRejectsDegenerateParameters(t *testing.T) {
	for name, f := range map[string]func(){
		"empty hot set":  func() { HotspotGen(10, 10, 0.01, 0.5, 1) },
		"empty cold set": func() { HotspotGen(10, 10, 1.0, 0.5, 1) },
		"hotopn=0":       func() { HotspotGen(10, 10, 0.5, 0, 1) },
		"hotopn=1":       func() { HotspotGen(10, 10, 0.5, 1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("HotspotGen with %s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestExponentialRanksDecay(t *testing.T) {
	const n, m, s = 20, 60000, 4.0
	g := ExponentialGen(n, m, s, 13)
	counts := make(map[int]float64)
	for rq, err := range g.Requests() {
		if err != nil {
			t.Fatal(err)
		}
		counts[rq.Src]++
	}
	// Source draws before the self-loop resample are pure sampler output:
	// sorted counts must decay ≈ exp(-s/n) per rank.
	sorted := make([]float64, 0, n)
	for _, c := range counts {
		sorted = append(sorted, c)
	}
	for i := range sorted {
		for j := i + 1; j < len(sorted); j++ {
			if sorted[j] > sorted[i] {
				sorted[i], sorted[j] = sorted[j], sorted[i]
			}
		}
	}
	wantRatio := math.Exp(-s / n)
	for i := 0; i+1 < 5; i++ { // the top ranks have enough mass to compare
		got := sorted[i+1] / sorted[i]
		if math.Abs(got-wantRatio) > 0.1 {
			t.Errorf("rank %d→%d popularity ratio %.3f, want ≈ %.3f", i, i+1, got, wantRatio)
		}
	}
}

func TestLatestFavorsRecentEndpoints(t *testing.T) {
	const n, m = 64, 30000
	g := LatestGen(n, m, 1.2, 17)
	// Recency locality: endpoints of request i reappear in request i+1 far
	// more often than the 4/n ≈ 0.06 a uniform draw would give.
	var prev sim.Request
	overlap, total := 0, 0
	for rq, err := range g.Requests() {
		if err != nil {
			t.Fatal(err)
		}
		if total > 0 {
			if rq.Src == prev.Src || rq.Src == prev.Dst || rq.Dst == prev.Src || rq.Dst == prev.Dst {
				overlap++
			}
		}
		prev = rq
		total++
	}
	frac := float64(overlap) / float64(total-1)
	if frac < 0.3 {
		t.Errorf("only %.3f of requests share an endpoint with their predecessor; latest should be recency-heavy", frac)
	}
	// And the hot set drifts: the endpoint histogram must still touch most
	// of the node space over the long run.
	st, err := MeasureStream(g)
	if err != nil {
		t.Fatal(err)
	}
	if st.SrcEntropy < 2 {
		t.Errorf("latest source entropy %.2f: hot set never drifts?", st.SrcEntropy)
	}
}

func TestSequentialSweepsAllPairsExactly(t *testing.T) {
	const n = 7
	cycle := n * (n - 1)
	g := SequentialGen(n, 2*cycle+3)
	seen := make(map[sim.Request]int)
	var reqs []sim.Request
	for rq, err := range g.Requests() {
		if err != nil {
			t.Fatal(err)
		}
		seen[rq]++
		reqs = append(reqs, rq)
	}
	if len(seen) != cycle {
		t.Fatalf("sweep visited %d distinct pairs, want %d", len(seen), cycle)
	}
	for rq, c := range seen {
		want := 2
		// The 3 extra requests revisit the first 3 pairs a third time.
		if rq == reqs[0] || rq == reqs[1] || rq == reqs[2] {
			want = 3
		}
		if c != want {
			t.Fatalf("pair %v served %d times, want %d", rq, c, want)
		}
	}
}

func TestHistogramZeroWeightNodesNeverAppear(t *testing.T) {
	g, err := HistogramGen(6, 5000, []float64{1, 0, 2, 0, 3, 4}, 21)
	if err != nil {
		t.Fatal(err)
	}
	for rq, err := range g.Requests() {
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range []int{rq.Src, rq.Dst} {
			if x == 2 || x == 4 {
				t.Fatalf("zero-weight node %d appeared in %v", x, rq)
			}
		}
	}
}

// TestHistogramRejectsBadWeights: besides malformed weights, fewer than
// two (which panicked) and weights that leave less than 2^-20 of the
// total off one node, or sum to +Inf (which hung a pass), are errors.
func TestHistogramRejectsBadWeights(t *testing.T) {
	if _, err := HistogramGen(6, 10, []float64{1, 2}, 1); err == nil {
		t.Error("HistogramGen accepted 2 weights for 6 nodes")
	}
	for name, weights := range map[string][]float64{
		"negative":       {1, -1, 1, 1, 1, 1},
		"nan":            {1, math.NaN(), 1, 1, 1, 1},
		"one positive":   {0, 0, 1, 0, 0, 0},
		"all zero":       {0, 0, 0, 0, 0, 0},
		"no weights":     {},
		"one weight":     {1},
		"(1, 1e-17)":     {1, 1e-17},
		"(1, 1, 1e308)":  {1, 1, 1e308},
		"(1e308, 1e308)": {1e308, 1e308},
	} {
		if _, err := HistogramGen(len(weights), 10, weights, 1); err == nil {
			t.Errorf("HistogramGen accepted %s weights", name)
		}
	}
}

func TestReadWeights(t *testing.T) {
	ws, err := ReadWeights(strings.NewReader("# popularity\n1.5\n\n2\n0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 3 || ws[0] != 1.5 || ws[1] != 2 || ws[2] != 0 {
		t.Fatalf("parsed %v", ws)
	}
	if _, err := ReadWeights(strings.NewReader("1\noops\n")); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("bad weight error %v lacks its line number", err)
	}
}

// TestPhasedBoundariesAreExact pins the phase-chaining contract: the
// stream is exactly phase 0's first M₀ requests, then phase 1's first M₁,
// regardless of how much more each phase generator could yield.
func TestPhasedBoundariesAreExact(t *testing.T) {
	a := SequentialGen(5, 100) // could yield 100; the phase takes 7
	b := UniformGen(5, 50, 4)  // could yield 50; the phase takes 9
	g, err := PhasedGen("two", []Phase{{Gen: a, M: 7}, {Gen: b, M: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 16 || g.Nodes() != 5 || g.Label() != "two" {
		t.Fatalf("phased shape %d/%d/%q", g.Len(), g.Nodes(), g.Label())
	}
	got := MustCollect(g)
	wantA, wantB := MustCollect(a), MustCollect(b)
	if got.Len() != 16 {
		t.Fatalf("phased yielded %d requests, want 16", got.Len())
	}
	for i := 0; i < 7; i++ {
		if got.Reqs[i] != wantA.Reqs[i] {
			t.Fatalf("request %d: %v, want phase-0 prefix %v", i, got.Reqs[i], wantA.Reqs[i])
		}
	}
	for i := 0; i < 9; i++ {
		if got.Reqs[7+i] != wantB.Reqs[i] {
			t.Fatalf("request %d: %v, want phase-1 prefix %v", 7+i, got.Reqs[7+i], wantB.Reqs[i])
		}
	}
}

func TestPhasedRejectsBadPhases(t *testing.T) {
	u := UniformGen(5, 10, 1)
	if _, err := PhasedGen("", nil); err == nil {
		t.Error("empty phase list accepted")
	}
	if _, err := PhasedGen("", []Phase{{Gen: u, M: 0}}); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := PhasedGen("", []Phase{{Gen: u, M: 11}}); err == nil {
		t.Error("duration exceeding a known-length phase accepted")
	}
	if _, err := PhasedGen("", []Phase{{Gen: u, M: 5}, {Gen: UniformGen(6, 10, 1), M: 5}}); err == nil {
		t.Error("mismatched node counts accepted")
	}
}

func TestPhasedUnderrunYieldsError(t *testing.T) {
	// A phase of unknown length (CSV) that under-runs its duration must end
	// the stream with an error, not silently truncate.
	dir := t.TempDir()
	path := filepath.Join(dir, "short.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(f, Trace{Name: "short", N: 5, Reqs: []sim.Request{{Src: 1, Dst: 2}, {Src: 2, Dst: 3}}}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	cg, err := OpenCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	g, err := PhasedGen("underrun", []Phase{{Gen: cg, M: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(g); err == nil || !strings.Contains(err.Error(), "yielded 2 of 4") {
		t.Fatalf("under-running phase error = %v", err)
	}
}

// TestPhasedStreamIsBoundedMemory is the tentpole's memory claim: a
// 10M-request drifting trace streams through a full statistics pass in
// memory proportional to the demand, far below the ≈160 MB its
// materialized []sim.Request would occupy.
func TestPhasedStreamIsBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("10M-request stream")
	}
	const mPhase = 2_500_000
	phases := make([]Phase, 4)
	for i := range phases {
		phases[i] = Phase{Gen: HotspotGen(256, mPhase, 0.1, 0.9, int64(30+i)), M: mPhase}
	}
	g, err := PhasedGen("10m-drift", phases)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	count := 0
	for rq, err := range g.Requests() {
		if err != nil {
			t.Fatal(err)
		}
		if rq.Src < 1 || rq.Src > 256 || rq.Dst < 1 || rq.Dst > 256 || rq.Src == rq.Dst {
			t.Fatalf("bad request %v at %d", rq, count)
		}
		count++
	}
	runtime.ReadMemStats(&after)
	if count != 4*mPhase {
		t.Fatalf("streamed %d requests, want %d", count, 4*mPhase)
	}
	// HeapAlloc can shrink across the run; guard only against growth on the
	// order of the materialized trace (16 bytes × 10M = 160 MB).
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > 32<<20 {
		t.Errorf("streaming 10M requests grew the heap by %d MiB; stream is materializing", grown>>20)
	}
}
