package spec

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/ksan-net/ksan/internal/engine"
	"github.com/ksan-net/ksan/internal/policy"
	"github.com/ksan-net/ksan/internal/sim"
	"github.com/ksan-net/ksan/internal/workload"
)

func sampleExperiment() *Experiment {
	return &Experiment{
		Name: "sample",
		Networks: []NetworkDef{
			{Kind: "kary", K: 3},
			{Kind: "centroid", K: 2},
			{Kind: "splaynet"},
			{Kind: "lazy", K: 3, Alpha: 10_000},
			{Kind: "full", K: 3},
			{Kind: "centroid-tree", K: 3},
			{Kind: "uniform-opt", K: 3},
		},
		Traces: []TraceDef{
			{Kind: "temporal", N: 32, M: 500, P: 0.5, Seed: 1},
			{Kind: "uniform", N: 32, M: 500, Seed: 2},
			{Kind: "zipf", N: 32, M: 500, S: 1.1, Seed: 3},
			{Kind: "hpc", N: 32, M: 500, Seed: 4},
			{Kind: "projector", N: 32, M: 500, Seed: 5},
			{Kind: "facebook", N: 32, M: 500, Seed: 6},
		},
		Engine: EngineDef{Workers: 2, Warmup: 100, Window: 200},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	x := sampleExperiment()
	var buf bytes.Buffer
	if err := x.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	first := buf.String()
	back, err := Decode(strings.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(x, back) {
		t.Fatalf("round trip changed the document:\n%+v\nvs\n%+v", x, back)
	}
	// Encoding is canonical: Encode(Decode(Encode(x))) is bit-identical.
	var again bytes.Buffer
	if err := back.Encode(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != first {
		t.Fatalf("encoding not canonical:\n%q\nvs\n%q", again.String(), first)
	}
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	in := `{"networks":[{"kind":"kary","k":3}],"traces":[{"kind":"uniform","n":8,"m":10}],"typo_field":1}`
	if _, err := Decode(strings.NewReader(in)); err == nil {
		t.Fatal("unknown top-level field accepted")
	}
	in = `{"networks":[{"kind":"kary","karity":3}],"traces":[{"kind":"uniform","n":8,"m":10}]}`
	if _, err := Decode(strings.NewReader(in)); err == nil {
		t.Fatal("unknown def field accepted")
	}
}

func TestDecodeRejectsTrailingData(t *testing.T) {
	doc := `{"networks":[{"kind":"kary","k":3}],"traces":[{"kind":"uniform","n":8,"m":10}]}`
	if _, err := Decode(strings.NewReader(doc + "\n" + doc)); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("concatenated documents accepted: %v", err)
	}
	// Trailing whitespace (what Encode emits) stays fine.
	if _, err := Decode(strings.NewReader(doc + "\n  \n")); err != nil {
		t.Fatalf("trailing whitespace rejected: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	base := func() *Experiment {
		return &Experiment{
			Networks: []NetworkDef{{Kind: "kary", K: 3}},
			Traces:   []TraceDef{{Kind: "uniform", N: 8, M: 10}},
		}
	}
	cases := map[string]func(*Experiment){
		"no networks":        func(x *Experiment) { x.Networks = nil },
		"no traces":          func(x *Experiment) { x.Traces = nil },
		"negative workers":   func(x *Experiment) { x.Engine.Workers = -1 },
		"unknown net kind":   func(x *Experiment) { x.Networks[0].Kind = "nope" },
		"unknown trace kind": func(x *Experiment) { x.Traces[0].Kind = "nope" },
		"kary k too small":   func(x *Experiment) { x.Networks[0].K = 1 },
		"splaynet with k":    func(x *Experiment) { x.Networks[0] = NetworkDef{Kind: "splaynet", K: 2} },
		"lazy without alpha": func(x *Experiment) { x.Networks[0] = NetworkDef{Kind: "lazy", K: 3} },
		"trace n too small":  func(x *Experiment) { x.Traces[0].N = 1 },
		"trace m too small":  func(x *Experiment) { x.Traces[0].M = 0 },
		"temporal bad p":     func(x *Experiment) { x.Traces[0] = TraceDef{Kind: "temporal", N: 8, M: 10, P: 1.0} },
		"zipf bad s":         func(x *Experiment) { x.Traces[0] = TraceDef{Kind: "zipf", N: 8, M: 10, S: 0} },
		"csv without path":   func(x *Experiment) { x.Traces[0] = TraceDef{Kind: "csv"} },
		// Set-but-unread parameters are rejected too: a field the kind
		// ignores means the document lies about the experiment.
		"uniform with p":   func(x *Experiment) { x.Traces[0].P = 0.75 },
		"uniform with s":   func(x *Experiment) { x.Traces[0].S = 1.2 },
		"temporal with s":  func(x *Experiment) { x.Traces[0] = TraceDef{Kind: "temporal", N: 8, M: 10, P: 0.5, S: 1.2} },
		"zipf with p":      func(x *Experiment) { x.Traces[0] = TraceDef{Kind: "zipf", N: 8, M: 10, S: 1.2, P: 0.5} },
		"generator + path": func(x *Experiment) { x.Traces[0].Path = "t.csv" },
		"csv with n/m":     func(x *Experiment) { x.Traces[0] = TraceDef{Kind: "csv", Path: "t.csv", N: 8, M: 10} },
		"kary with alpha":  func(x *Experiment) { x.Networks[0].Alpha = 50 },
	}
	for name, mutate := range cases {
		x := base()
		mutate(x)
		if err := x.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, x)
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("base document rejected: %v", err)
	}
}

func TestUnknownKindErrorNamesRegisteredKinds(t *testing.T) {
	_, err := NetworkDef{Kind: "nope"}.Spec()
	if err == nil || !strings.Contains(err.Error(), "kary") {
		t.Errorf("unknown-kind error should list registered kinds, got %v", err)
	}
	_, err = TraceDef{Kind: "nope"}.Materialize()
	if err == nil || !strings.Contains(err.Error(), "uniform") {
		t.Errorf("unknown-kind error should list registered kinds, got %v", err)
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if r := recover(); r == nil {
				t.Errorf("%s did not panic", name)
			} else if msg, ok := r.(string); !ok || !strings.Contains(msg, "already registered") {
				t.Errorf("%s panic %v lacks a clear message", name, r)
			}
		}()
		fn()
	}
	mustPanic("duplicate network kind", func() {
		RegisterNetwork("kary", func(NetworkDef) (engine.NetworkSpec, error) {
			return engine.NetworkSpec{}, nil
		})
	})
	mustPanic("duplicate trace kind", func() {
		RegisterTrace("uniform", func(TraceDef) (workload.Generator, error) {
			return workload.Trace{}, nil
		})
	})
}

func TestRegisterRejectsNilAndEmpty(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty network kind": func() {
			RegisterNetwork("", func(NetworkDef) (engine.NetworkSpec, error) { return engine.NetworkSpec{}, nil })
		},
		"nil network builder": func() { RegisterNetwork("x-nil", nil) },
		"empty trace kind": func() {
			RegisterTrace("", func(TraceDef) (workload.Generator, error) { return workload.Trace{}, nil })
		},
		"nil trace builder": func() { RegisterTrace("x-nil", nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// customKindsOnce registers TestCustomKindsResolve's kinds once per
// process: the registry panics on a duplicate, and go test -count=2
// runs the test twice.
var customKindsOnce sync.Once

func TestCustomKindsResolve(t *testing.T) {
	customKindsOnce.Do(func() {
		RegisterNetwork("test-fixed", func(d NetworkDef) (engine.NetworkSpec, error) {
			return engine.NetworkSpec{Name: "fixed", Make: func(n int) sim.Network {
				return fixedNet{n: n}
			}}, nil
		})
		RegisterTrace("test-pair", func(d TraceDef) (workload.Generator, error) {
			return workload.Trace{Name: "pair", N: d.N, Reqs: []sim.Request{{Src: 1, Dst: 2}}}, nil
		})
	})
	x := &Experiment{
		Networks: []NetworkDef{{Kind: "test-fixed"}},
		Traces:   []TraceDef{{Kind: "test-pair", N: 4}},
	}
	nets, traces, _, err := x.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	grid, err := engine.New().RunGrid(context.Background(), nets, traces)
	if err != nil {
		t.Fatal(err)
	}
	if grid[0][0].Requests != 1 || grid[0][0].Routing != 1 {
		t.Errorf("custom grid cell %+v", grid[0][0])
	}
}

// fixedNet serves every request at unit routing cost.
type fixedNet struct{ n int }

func (f fixedNet) Name() string            { return "fixed" }
func (f fixedNet) N() int                  { return f.n }
func (f fixedNet) Serve(u, v int) sim.Cost { return sim.Cost{Routing: 1} }

func TestResolveMatchesDirectConstruction(t *testing.T) {
	// A def-built grid must be bit-identical to the closure-built one.
	x := &Experiment{
		Networks: []NetworkDef{{Kind: "kary", K: 4}},
		Traces:   []TraceDef{{Kind: "temporal", N: 64, M: 4000, P: 0.75, Seed: 9}},
	}
	nets, traces, opts, err := x.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if len(opts) != 0 {
		t.Fatalf("zero EngineDef produced options: %d", len(opts))
	}
	grid, err := engine.New().RunGrid(context.Background(), nets, traces)
	if err != nil {
		t.Fatal(err)
	}
	tr := workload.Temporal(64, 4000, 0.75, 9)
	net, err := policy.NewKArySplayNet(64, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := seedLoop(net, tr.Reqs)
	if grid[0][0].Result != want {
		t.Errorf("def-built cell %+v != direct %+v", grid[0][0].Result, want)
	}
	if traces[0].Name != "temporal-0.75" || traces[0].N != 64 {
		t.Errorf("materialized trace spec %q/%d", traces[0].Name, traces[0].N)
	}
}

// seedLoop serves reqs on net one by one: the plain loop every runner
// must reproduce.
func seedLoop(net sim.Network, reqs []sim.Request) sim.Result {
	res := sim.Result{Name: net.Name(), Requests: int64(len(reqs))}
	for _, rq := range reqs {
		c := net.Serve(rq.Src, rq.Dst)
		res.Routing += c.Routing
		res.Adjust += c.Adjust
	}
	return res
}

// TestNameOverrides holds every builtin kind to NetworkDef's contract:
// one label names both the grid cell and the constructed network, and
// Name overrides both.
func TestNameOverrides(t *testing.T) {
	defs := []NetworkDef{
		{Kind: "kary", K: 3},
		{Kind: "centroid", K: 2},
		{Kind: "splaynet"},
		{Kind: "lazy", K: 4, Alpha: 100},
		{Kind: "full", K: 3},
		{Kind: "centroid-tree", K: 3},
		{Kind: "uniform-opt", K: 3},
	}
	for _, d := range defs {
		for _, name := range []string{"", "mine"} {
			d := d
			d.Name = name
			ns, err := d.Spec()
			if err != nil {
				t.Fatalf("%+v: %v", d, err)
			}
			got := ns.Make(15).Name()
			switch {
			case name != "" && (ns.Name != name || got != name):
				t.Errorf("%s named %q: grid label %q, network name %q", d.Kind, name, ns.Name, got)
			case name == "" && ns.Name != got:
				t.Errorf("%s: grid label %q, network name %q", d.Kind, ns.Name, got)
			}
		}
	}
	tr, err := TraceDef{Kind: "uniform", N: 8, M: 10, Seed: 1, Name: "mine"}.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "mine" {
		t.Errorf("trace label %q, want the override", tr.Name)
	}
}

// TestHugeArityRejectedBeforeAllocating: an arity whose cut space n·k
// overflows int32 is a construction error for every tree kind, found
// before anything of size k is allocated (the memory bound holds even on
// a host that could survive the allocation), while a small arity at the
// same node count still builds.
func TestHugeArityRejectedBeforeAllocating(t *testing.T) {
	const n = 8
	build := func(kind string, k int) (uint64, error) {
		d := NetworkDef{Kind: kind, K: k}
		if kind == "lazy" {
			d.Alpha = 100
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ns, err := d.Spec()
		if err == nil {
			err = engine.AsFailed(ns.Make(n))
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, err
	}
	for _, kind := range []string{"kary", "lazy", "full", "centroid-tree", "uniform-opt", "centroid"} {
		for _, k := range []int{2_000_000_000, 300_000_000} {
			alloc, err := build(kind, k)
			if err == nil {
				t.Errorf("%s: n=%d k=%d built", kind, n, k)
			}
			if alloc >= 1<<20 {
				t.Errorf("%s: n=%d k=%d allocated %d bytes before failing", kind, n, k, alloc)
			}
		}
		if _, err := build(kind, n); err != nil {
			t.Errorf("%s: n=%d k=%d: %v", kind, n, n, err)
		}
	}
}

func TestBuilderErrorsCarryConstructorCause(t *testing.T) {
	// A builtin def whose parameters are valid in isolation but
	// incompatible with a trace's node count must surface the
	// constructor's message as the cell error, not a generic nil-network
	// line (centroid networks need n >= 3).
	x := &Experiment{
		Networks: []NetworkDef{{Kind: "centroid", K: 2}},
		Traces:   []TraceDef{{Kind: "uniform", N: 2, M: 10, Seed: 1}},
	}
	nets, traces, _, err := x.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	_, err = engine.New().RunGrid(context.Background(), nets, traces)
	if err == nil {
		t.Fatal("incompatible grid accepted")
	}
	if !strings.Contains(err.Error(), "centroidnet") || !strings.Contains(err.Error(), "3 nodes") {
		t.Errorf("cell error %q lost the constructor's cause", err)
	}
}

func TestCSVTraceKind(t *testing.T) {
	tr := workload.Uniform(16, 50, 3)
	path := filepath.Join(t.TempDir(), "trace.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.WriteCSV(f, tr); err != nil {
		t.Fatal(err)
	}
	f.Close()
	back, err := TraceDef{Kind: "csv", Path: path}.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if back.N != tr.N || back.Len() != tr.Len() {
		t.Fatalf("csv trace %d/%d, want %d/%d", back.N, back.Len(), tr.N, tr.Len())
	}
	if _, err := (TraceDef{Kind: "csv", Path: filepath.Join(t.TempDir(), "absent.csv")}).Materialize(); err == nil {
		t.Error("missing trace file accepted")
	}
}

func TestEngineDefOptions(t *testing.T) {
	opts := (EngineDef{Workers: 3, Warmup: 10, Window: 20, LinkChurn: true}).Options()
	if len(opts) != 4 {
		t.Fatalf("got %d options, want 4", len(opts))
	}
	if got := len((EngineDef{}).Options()); got != 0 {
		t.Fatalf("zero def produced %d options", got)
	}
}

func TestSampleExperimentRuns(t *testing.T) {
	// The full builtin taxonomy, resolved and executed end to end.
	nets, traces, opts, err := sampleExperiment().Resolve()
	if err != nil {
		t.Fatal(err)
	}
	grid, err := engine.New(opts...).RunGrid(context.Background(), nets, traces)
	if err != nil {
		t.Fatal(err)
	}
	for i := range grid {
		for j := range grid[i] {
			if grid[i][j].Requests != 400 { // 500 minus 100 warmup
				t.Errorf("cell (%d,%d) measured %d requests, want 400", i, j, grid[i][j].Requests)
			}
			if len(grid[i][j].Series) == 0 {
				t.Errorf("cell (%d,%d) has no window series", i, j)
			}
		}
	}
}
