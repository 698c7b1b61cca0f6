package engine

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/ksan-net/ksan/internal/sim"
	"github.com/ksan-net/ksan/internal/statictree"
	"github.com/ksan-net/ksan/internal/workload"
)

// staticNet builds a frozen full 3-ary tree over n nodes.
func staticNet(t *testing.T, n int) sim.Network {
	t.Helper()
	full, err := statictree.Full(n, 3)
	if err != nil {
		t.Fatal(err)
	}
	return frozen("full", full)
}

// TestRunGenMatchesRunOnCollectedTrace pins the tentpole's determinism
// claim at the engine boundary: serving a generator's stream and serving
// its collected slice are the same run, bit for bit, on an adjusting and
// on a frozen net.
func TestRunGenMatchesRunOnCollectedTrace(t *testing.T) {
	gen := workload.TemporalGen(48, 9000, 0.7, 5)
	tr := workload.MustCollect(gen)
	for _, tc := range []struct {
		name string
		make func() sim.Network
	}{
		{"adjusting", func() sim.Network { return kary(48, 3) }},
		{"frozen", func() sim.Network { return staticNet(t, 48) }},
	} {
		eng := New(WithWindow(1500))
		fromGen, err := eng.RunGen(context.Background(), tc.make(), gen)
		if err != nil {
			t.Fatal(err)
		}
		fromSlice, err := eng.Run(context.Background(), tc.make(), tr.Reqs)
		if err != nil {
			t.Fatal(err)
		}
		a, b := fromGen.Stripped(), fromSlice.Stripped()
		// Run labels the trace "" (anonymous slice); RunGen uses the label.
		a.Trace, b.Trace = "", ""
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: stream run %+v != materialized run %+v", tc.name, a, b)
		}
	}
}

// TestEngineServesUnknownLengthStream runs a CSV-backed generator — the
// one kind that cannot declare its length — on an adjusting and on a
// frozen net.
func TestEngineServesUnknownLengthStream(t *testing.T) {
	tr := workload.Uniform(24, 4000, 9)
	path := filepath.Join(t.TempDir(), "trace.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.WriteCSV(f, tr); err != nil {
		t.Fatal(err)
	}
	f.Close()
	gen, err := workload.OpenCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	if gen.Len() != workload.UnknownLen {
		t.Fatalf("csv generator Len() = %d, want UnknownLen", gen.Len())
	}
	for _, tc := range []struct {
		name string
		make func() sim.Network
	}{
		{"adjusting", func() sim.Network { return kary(24, 3) }},
		{"frozen", func() sim.Network { return staticNet(t, 24) }},
	} {
		eng := New(WithWindow(500))
		got, err := eng.RunGen(context.Background(), tc.make(), gen)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err := eng.Run(context.Background(), tc.make(), tr.Reqs)
		if err != nil {
			t.Fatal(err)
		}
		a, b := got.Stripped(), want.Stripped()
		a.Trace, b.Trace = "", ""
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: csv stream %+v != materialized %+v", tc.name, a, b)
		}
	}
}

// TestUnknownLengthProgressReportsNegativeTotal pins the Progress contract
// for unknown-length streams: Total is -1 on mid-run events.
func TestUnknownLengthProgressReportsNegativeTotal(t *testing.T) {
	tr := workload.Uniform(16, 6000, 11)
	path := filepath.Join(t.TempDir(), "trace.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.WriteCSV(f, tr); err != nil {
		t.Fatal(err)
	}
	f.Close()
	gen, err := workload.OpenCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	events := 0
	eng := New(WithWindow(1000), WithProgress(func(p Progress) {
		events++
		if p.Total != -1 {
			t.Errorf("progress event %d has Total=%d, want -1 for an unknown-length stream", events, p.Total)
		}
	}))
	if _, err := eng.RunGen(context.Background(), kary(16, 3), gen); err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Error("no progress events fired")
	}
}

// TestGridSharesOneGeneratorAcrossCells runs a grid whose traces are
// TraceSpecFor factories and checks it matches the materialized grid:
// every cell takes its own pass over the shared stream.
func TestGridSharesOneGeneratorAcrossCells(t *testing.T) {
	gens := []workload.Generator{
		workload.TemporalGen(32, 5000, 0.6, 2),
		workload.HotspotGen(32, 5000, 0.25, 0.9, 3),
	}
	nets := []NetworkSpec{}
	for _, k := range []int{2, 3, 4} {
		k := k
		nets = append(nets, NetworkSpec{
			Name: "kary",
			Make: func(n int) sim.Network { return kary(n, k) },
		})
	}
	var streaming, materialized []TraceSpec
	for _, g := range gens {
		streaming = append(streaming, TraceSpecFor(g))
		tr := workload.MustCollect(g)
		materialized = append(materialized, TraceSpec{Name: tr.Name, N: tr.N, Reqs: tr.Reqs})
	}
	run := func(traces []TraceSpec, workers int) [][]Result {
		grid, err := New(WithWorkers(workers)).RunGrid(context.Background(), nets, traces)
		if err != nil {
			t.Fatal(err)
		}
		for i := range grid {
			for j := range grid[i] {
				grid[i][j] = grid[i][j].Stripped()
			}
		}
		return grid
	}
	want := run(materialized, 1)
	for _, workers := range []int{1, 8} {
		if got := run(streaming, workers); !reflect.DeepEqual(got, want) {
			t.Errorf("streaming grid (workers=%d) differs from materialized grid:\n%+v\nvs\n%+v",
				workers, got, want)
		}
	}
}

// TestInlineValidationStopsAtFirstBadRequest pins the replacement for the
// up-front Validate pass: the run fails at the first invalid request with
// its index in the error and the valid prefix measured.
func TestInlineValidationStopsAtFirstBadRequest(t *testing.T) {
	rs := reqs(16, 100, 1)
	rs[40] = sim.Request{Src: 5, Dst: 99}
	net := &fakeNet{n: 16, name: "fake"}
	res, err := New().Run(context.Background(), net, rs)
	if err == nil || !strings.Contains(err.Error(), "request 40") {
		t.Fatalf("error %v does not name the bad request index", err)
	}
	if res.Requests != 40 {
		t.Errorf("measured %d requests before the bad one, want 40", res.Requests)
	}
	if net.served != 40 {
		t.Errorf("network served %d requests, want 40 (the bad request must not be served)", net.served)
	}
}
