package spec

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/ksan-net/ksan/internal/workload"
)

// TestNewTraceKindsResolve resolves every generator kind PR 7 added and
// checks each against its direct construction.
func TestNewTraceKindsResolve(t *testing.T) {
	weightsPath := filepath.Join(t.TempDir(), "weights.txt")
	if err := os.WriteFile(weightsPath, []byte("3\n2\n1\n1\n1\n1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		def  TraceDef
		want workload.Generator
	}{
		{TraceDef{Kind: "hotspot", N: 20, M: 500, Hot: 0.2, HotOpn: 0.8, Seed: 4},
			workload.HotspotGen(20, 500, 0.2, 0.8, 4)},
		{TraceDef{Kind: "exponential", N: 20, M: 500, S: 3, Seed: 4},
			workload.ExponentialGen(20, 500, 3, 4)},
		{TraceDef{Kind: "latest", N: 20, M: 500, S: 1.2, Seed: 4},
			workload.LatestGen(20, 500, 1.2, 4)},
		{TraceDef{Kind: "sequential", N: 7, M: 100},
			workload.SequentialGen(7, 100)},
	}
	hist, err := workload.HistogramGen(6, 200, []float64{3, 2, 1, 1, 1, 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, struct {
		def  TraceDef
		want workload.Generator
	}{TraceDef{Kind: "histogram", M: 200, Path: weightsPath, Seed: 4}, hist})

	for _, tc := range cases {
		g, err := tc.def.Resolve()
		if err != nil {
			t.Fatalf("%s: %v", tc.def.Kind, err)
		}
		got, err := workload.Collect(g)
		if err != nil {
			t.Fatalf("%s: %v", tc.def.Kind, err)
		}
		want := workload.MustCollect(tc.want)
		if got.N != want.N || got.Len() != want.Len() {
			t.Fatalf("%s: resolved shape %d/%d, want %d/%d", tc.def.Kind, got.N, got.Len(), want.N, want.Len())
		}
		for i := range want.Reqs {
			if got.Reqs[i] != want.Reqs[i] {
				t.Fatalf("%s: resolved stream diverges from direct construction at %d", tc.def.Kind, i)
			}
		}
	}
}

// TestPhasedKindResolves builds a three-phase drifting def — the A6
// scenario as JSON would express it — and checks phase boundaries.
func TestPhasedKindResolves(t *testing.T) {
	def := TraceDef{Kind: "phased", Name: "drift", Phases: []TraceDef{
		{Kind: "hotspot", N: 16, M: 200, Hot: 0.25, HotOpn: 0.9, Seed: 1},
		{Kind: "sequential", N: 16, M: 100},
		{Kind: "hotspot", N: 16, M: 200, Hot: 0.25, HotOpn: 0.9, Seed: 2},
	}}
	g, err := def.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if g.Label() != "drift" || g.Nodes() != 16 || g.Len() != 500 {
		t.Fatalf("phased resolved to %q/%d/%d", g.Label(), g.Nodes(), g.Len())
	}
	tr, err := workload.Collect(g)
	if err != nil {
		t.Fatal(err)
	}
	// The middle phase is the deterministic sweep: request 200 must be the
	// sweep's first pair (1,2).
	if tr.Reqs[200].Src != 1 || tr.Reqs[200].Dst != 2 {
		t.Errorf("request 200 = %v, want the sequential phase to start at (1,2)", tr.Reqs[200])
	}
	// Drift: the two hotspot phases use different seeds, so their prefixes
	// must differ somewhere.
	same := true
	for i := 0; i < 200; i++ {
		if tr.Reqs[i] != tr.Reqs[300+i] {
			same = false
			break
		}
	}
	if same {
		t.Error("phases 0 and 2 are identical; hot set did not drift")
	}
}

// TestStrictValidationRejectsMisuse checks both directions of the spec
// contract for the new kinds: required params in range, and params a kind
// does not read rejected loudly.
func TestStrictValidationRejectsMisuse(t *testing.T) {
	cases := map[string]TraceDef{
		"hotspot without hot":     {Kind: "hotspot", N: 20, M: 100, HotOpn: 0.8},
		"hotspot without hotopn":  {Kind: "hotspot", N: 20, M: 100, Hot: 0.2},
		"hotspot hot=1":           {Kind: "hotspot", N: 20, M: 100, Hot: 1, HotOpn: 0.8},
		"hotspot empty hot set":   {Kind: "hotspot", N: 20, M: 100, Hot: 0.01, HotOpn: 0.8},
		"hotspot stray phases":    {Kind: "hotspot", N: 20, M: 100, Hot: 0.2, HotOpn: 0.8, Phases: []TraceDef{{Kind: "uniform", N: 20, M: 1}}},
		"uniform stray hot":       {Kind: "uniform", N: 20, M: 100, Hot: 0.5},
		"uniform stray hotopn":    {Kind: "uniform", N: 20, M: 100, HotOpn: 0.5},
		"uniform stray phases":    {Kind: "uniform", N: 20, M: 100, Phases: []TraceDef{{Kind: "uniform", N: 20, M: 1}}},
		"exponential without s":   {Kind: "exponential", N: 20, M: 100},
		"sequential stray seed":   {Kind: "sequential", N: 20, M: 100, Seed: 1},
		"histogram without path":  {Kind: "histogram", N: 20, M: 100},
		"histogram stray n":       {Kind: "histogram", N: 20, M: 100, Path: "w.txt", S: 1},
		"phased without phases":   {Kind: "phased"},
		"phased with stray m":     {Kind: "phased", M: 5, Phases: []TraceDef{{Kind: "uniform", N: 20, M: 100}}},
		"phased nested phased":    {Kind: "phased", Phases: []TraceDef{{Kind: "phased", Phases: []TraceDef{{Kind: "uniform", N: 20, M: 1}}}}},
		"phased csv phase":        {Kind: "phased", Phases: []TraceDef{{Kind: "csv", Path: "x.csv", M: 5}}},
		"phased node mismatch":    {Kind: "phased", Phases: []TraceDef{{Kind: "uniform", N: 20, M: 10}, {Kind: "uniform", N: 30, M: 10}}},
		"phased phase without m":  {Kind: "phased", Phases: []TraceDef{{Kind: "uniform", N: 20}}},
		"phased bad nested phase": {Kind: "phased", Phases: []TraceDef{{Kind: "hotspot", N: 20, M: 10}}},
	}
	for name, def := range cases {
		x := &Experiment{
			Networks: []NetworkDef{{Kind: "kary", K: 2}},
			Traces:   []TraceDef{def},
		}
		if err := x.Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
}

// countCallsOnce guards the registration of the count-calls trace kind,
// whose builder counts its calls into countCalls.
var (
	countCallsOnce sync.Once
	countCalls     int
)

// TestResolveConstructsEachGeneratorOnce pins the satellite contract: a
// custom builder is invoked exactly once per Resolve however many cells
// its trace feeds.
func TestResolveConstructsEachGeneratorOnce(t *testing.T) {
	// Registration is global and permanent (like sql.Register) and
	// panics on a duplicate, so the kind — its name unique to this test —
	// is registered once per process, and a repeated run (go test
	// -count=2) only resets the count.
	countCallsOnce.Do(func() {
		RegisterTrace("count-calls", func(d TraceDef) (workload.Generator, error) {
			countCalls++
			return workload.UniformGen(8, 10, 1), nil
		})
	})
	countCalls = 0
	x := &Experiment{
		Networks: []NetworkDef{{Kind: "kary", K: 2}, {Kind: "kary", K: 3}, {Kind: "kary", K: 4}},
		Traces:   []TraceDef{{Kind: "count-calls", Name: "c"}},
	}
	nets, traces, _, err := x.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if len(nets) != 3 || len(traces) != 1 {
		t.Fatalf("resolved %d×%d", len(nets), len(traces))
	}
	if countCalls != 1 {
		t.Errorf("builder called %d times, want exactly once", countCalls)
	}
	if traces[0].Gen == nil {
		t.Error("resolved TraceSpec does not carry the generator factory")
	}
}

// TestSkewedKindsRejectOneNodeDraws resolves defs whose endpoint draw puts
// all but a sliver of its mass on one node, which the kinds would redraw
// self-loops on forever, and histogram files with fewer than two weights,
// which panicked. Each must come back with an error inside the deadline.
func TestSkewedKindsRejectOneNodeDraws(t *testing.T) {
	dir := t.TempDir()
	file := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cases := map[string]TraceDef{
		"zipf s=40":              {Kind: "zipf", N: 100, M: 10, S: 40},
		"zipf s=1000":            {Kind: "zipf", N: 100, M: 10, S: 1000},
		"exponential s=2000":     {Kind: "exponential", N: 100, M: 10, S: 2000},
		"exponential s=1e5":      {Kind: "exponential", N: 100, M: 10, S: 1e5},
		"latest s=1000":          {Kind: "latest", N: 100, M: 10, S: 1000},
		"hotspot hotopn=1-1e-12": {Kind: "hotspot", N: 100, M: 10, Hot: 0.01, HotOpn: 1 - 1e-12},
		"histogram (1, 1e-17)":   {Kind: "histogram", M: 10, Path: file("tiny.txt", "1\n1e-17\n")},
		"histogram (1, 1, 1e308)": {Kind: "histogram", M: 10,
			Path: file("huge.txt", "1\n1\n1e308\n")},
		"histogram (1e308, 1e308)": {Kind: "histogram", M: 10, Path: file("inf.txt", "1e308\n1e308\n")},
		"histogram one weight":     {Kind: "histogram", M: 10, Path: file("one.txt", "7\n")},
		"histogram only comments":  {Kind: "histogram", M: 10, Path: file("none.txt", "# no weights\n")},
	}
	for name, def := range cases {
		t.Run(name, func(t *testing.T) {
			done := make(chan error, 1)
			go func() {
				g, err := def.Resolve()
				if err == nil {
					_, err = workload.Collect(g)
				}
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil {
					t.Error("no error")
				}
			case <-time.After(2 * time.Second):
				t.Fatal("no error within 2s")
			}
		})
	}
}
