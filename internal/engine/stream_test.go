package engine

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"github.com/ksan-net/ksan/internal/sim"
	"github.com/ksan-net/ksan/internal/statictree"
	"github.com/ksan-net/ksan/internal/workload"
)

// streamGrid collects a stream into grid shape, failing on any cell error.
func streamGrid(t *testing.T, e *Engine, nets []NetworkSpec, traces []TraceSpec) [][]Result {
	t.Helper()
	out := make([][]Result, len(nets))
	for i := range out {
		out[i] = make([]Result, len(traces))
	}
	seen := map[[2]int]bool{}
	for c, err := range e.Stream(context.Background(), nets, traces) {
		if err != nil {
			t.Fatalf("cell (%d,%d): %v", c.I, c.J, err)
		}
		if seen[[2]int{c.I, c.J}] {
			t.Fatalf("cell (%d,%d) yielded twice", c.I, c.J)
		}
		seen[[2]int{c.I, c.J}] = true
		out[c.I][c.J] = c.Result.Stripped()
	}
	if len(seen) != len(nets)*len(traces) {
		t.Fatalf("stream yielded %d cells, want %d", len(seen), len(nets)*len(traces))
	}
	return out
}

// TestStreamMatchesRunGridAcrossWorkers is the streaming determinism
// contract: cells collected from Stream and merged by (I, J) are identical
// to RunGrid's barrier output, at every worker count.
func TestStreamMatchesRunGridAcrossWorkers(t *testing.T) {
	tr := workload.Temporal(48, 6000, 0.6, 2)
	var nets []NetworkSpec
	for _, k := range []int{2, 3, 5} {
		k := k
		nets = append(nets, NetworkSpec{
			Name: "kary",
			Make: func(n int) sim.Network { return kary(n, k) },
		})
	}
	full, err := statictree.Full(48, 3)
	if err != nil {
		t.Fatal(err)
	}
	nets = append(nets, NetworkSpec{
		Name: "full",
		Make: func(n int) sim.Network { return frozen("full", full) },
	})
	traces := []TraceSpec{
		{Name: tr.Name, N: tr.N, Reqs: tr.Reqs},
		{Name: "uniform", N: 48, Reqs: workload.Uniform(48, 5000, 7).Reqs},
	}

	ref, err := New(WithWorkers(1), WithWindow(1000)).RunGrid(context.Background(), nets, traces)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		for j := range ref[i] {
			ref[i][j] = ref[i][j].Stripped()
		}
	}
	for _, workers := range []int{1, 2, 8} {
		got := streamGrid(t, New(WithWorkers(workers), WithWindow(1000)), nets, traces)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("stream with %d workers diverges from RunGrid:\n%+v\nvs\n%+v", workers, got, ref)
		}
	}
}

func TestStreamEmptyGrid(t *testing.T) {
	count := 0
	for range New().Stream(context.Background(), nil, nil) {
		count++
	}
	if count != 0 {
		t.Fatalf("empty grid yielded %d cells", count)
	}
}

func TestStreamEarlyBreakStopsDispatch(t *testing.T) {
	// Break after the first cell: the stream must terminate promptly and
	// not run the whole 64-cell grid behind the consumer's back.
	var served atomic.Int64
	nets := []NetworkSpec{{Name: "count", Make: func(n int) sim.Network {
		return countingNet{n: n, served: &served}
	}}}
	var traces []TraceSpec
	for s := int64(0); s < 64; s++ {
		traces = append(traces, TraceSpec{Name: "u", N: 8, Reqs: workload.Uniform(8, 100, s).Reqs})
	}
	e := New(WithWorkers(2))
	got := 0
	for range e.Stream(context.Background(), nets, traces) {
		got++
		break
	}
	if got != 1 {
		t.Fatalf("consumed %d cells", got)
	}
	// The unbuffered channel caps pre-break completions at one blocked send
	// per worker, and the stop check at the top of the worker body caps
	// post-break work at the in-flight cells: a handful of 100-request
	// cells, nowhere near the 6400-request grid.
	if n := served.Load(); n > 10*100 {
		t.Errorf("early break did not stop dispatch: %d requests served", n)
	}
}

func TestStreamMakeErrorCarriesCause(t *testing.T) {
	// A Make that cannot build for the trace's n reports the constructor's
	// own message through FailedNetwork, not just a generic nil-network
	// error.
	cause := errors.New("arity 7 incompatible with 3 nodes")
	nets := []NetworkSpec{{Name: "picky", Make: func(n int) sim.Network {
		return FailedNetwork(cause)
	}}}
	traces := []TraceSpec{{Name: "t", N: 3, Reqs: workload.Uniform(3, 10, 1).Reqs}}
	seen := 0
	for _, err := range New().Stream(context.Background(), nets, traces) {
		seen++
		if !errors.Is(err, cause) {
			t.Errorf("cell error %v does not wrap the construction cause", err)
		}
	}
	if seen != 1 {
		t.Fatalf("yielded %d cells", seen)
	}
	if _, err := New().RunGrid(context.Background(), nets, traces); !errors.Is(err, cause) {
		t.Errorf("RunGrid error %v does not wrap the construction cause", err)
	}
}

func TestStreamYieldsCellErrorsAndHalts(t *testing.T) {
	// Cell (0,0) fails to construct; the stream must yield that error and
	// stop dispatching, like RunGrid's first-error semantics.
	nets := []NetworkSpec{{Name: "nil", Make: func(n int) sim.Network { return nil }}}
	traces := []TraceSpec{
		{Name: "a", N: 8, Reqs: workload.Uniform(8, 50, 1).Reqs},
		{Name: "b", N: 8, Reqs: workload.Uniform(8, 50, 2).Reqs},
	}
	var errs []error
	cells := 0
	for _, err := range New(WithWorkers(1)).Stream(context.Background(), nets, traces) {
		cells++
		errs = append(errs, err)
	}
	if cells != 1 || errs[0] == nil {
		t.Fatalf("want exactly one failed cell, got %d cells, errs %v", cells, errs)
	}

	// RunGrid over the same grid surfaces the same first error.
	_, err := New(WithWorkers(1)).RunGrid(context.Background(), nets, traces)
	if err == nil || err.Error() != errs[0].Error() {
		t.Fatalf("RunGrid error %v != streamed cell error %v", err, errs[0])
	}
}

func TestStreamCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	yielded := 0
	for _, err := range New().Stream(ctx, []NetworkSpec{{Make: func(n int) sim.Network { return &fakeNet{n: n, name: "x"} }}},
		[]TraceSpec{{N: 8, Reqs: workload.Uniform(8, 100, 1).Reqs}}) {
		if err == nil {
			t.Error("cancelled stream yielded a clean cell")
		}
		yielded++
	}
	// A pre-cancelled context may yield zero cells (dispatch never starts)
	// — RunGrid is responsible for surfacing ctx.Err() then.
	if yielded > 1 {
		t.Fatalf("pre-cancelled stream yielded %d cells", yielded)
	}
	if _, err := New().RunGrid(ctx, nil, nil); err != nil {
		t.Fatalf("empty grid must not error even cancelled: %v", err)
	}
}

// countingNet counts served requests across instances via a shared counter.
type countingNet struct {
	n      int
	served *atomic.Int64
}

func (c countingNet) Name() string { return "count" }
func (c countingNet) N() int       { return c.n }
func (c countingNet) Serve(u, v int) sim.Cost {
	c.served.Add(1)
	return sim.Cost{Routing: 1}
}

func TestRunGridStillReturnsFirstError(t *testing.T) {
	// Belt and braces for the reimplementation on Stream: a mid-grid
	// validation failure must surface as RunGrid's error with the healthy
	// cells still populated.
	nets := []NetworkSpec{{Name: "fake", Make: func(n int) sim.Network { return &fakeNet{n: n, name: "fake"} }}}
	traces := []TraceSpec{
		{Name: "good", N: 16, Reqs: workload.Uniform(16, 200, 1).Reqs},
		{Name: "bad", N: 16, Reqs: []sim.Request{{Src: 1, Dst: 99}}},
	}
	grid, err := New(WithWorkers(1)).RunGrid(context.Background(), nets, traces)
	if err == nil {
		t.Fatal("invalid trace accepted")
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("unexpected cancellation: %v", err)
	}
	if grid[0][0].Requests != 200 {
		t.Errorf("healthy cell lost: %+v", grid[0][0])
	}
}
