package engine

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"github.com/ksan-net/ksan/internal/core"
	"github.com/ksan-net/ksan/internal/policy"
	"github.com/ksan-net/ksan/internal/sim"
	"github.com/ksan-net/ksan/internal/statictree"
	"github.com/ksan-net/ksan/internal/workload"
)

// kary builds the k-ary SplayNet; it panics on bad parameters.
func kary(n, k int) *policy.Net {
	net, err := policy.NewKArySplayNet(n, k)
	if err != nil {
		panic(err)
	}
	return net
}

// frozen serves t as a static network, the never × none composition.
func frozen(name string, t *core.Tree) *policy.Net {
	net, err := policy.New(name, t, policy.Never(), policy.None())
	if err != nil {
		panic(err)
	}
	return net
}

// seedLoop is the plain serve loop the engine must reproduce.
func seedLoop(net sim.Network, reqs []sim.Request) sim.Result {
	res := sim.Result{Name: net.Name(), Requests: int64(len(reqs))}
	for _, rq := range reqs {
		c := net.Serve(rq.Src, rq.Dst)
		res.Routing += c.Routing
		res.Adjust += c.Adjust
	}
	return res
}

// fakeNet is a deterministic sequential Network: request (u,v) costs u+v
// routing and v adjustment.
type fakeNet struct {
	n      int
	name   string
	served int64
}

func (f *fakeNet) Name() string { return f.name }
func (f *fakeNet) N() int       { return f.n }
func (f *fakeNet) Serve(u, v int) sim.Cost {
	f.served++
	return sim.Cost{Routing: int64(u + v), Adjust: int64(v)}
}

func reqs(n, m int, seed int64) []sim.Request {
	return workload.Uniform(n, m, seed).Reqs
}

func TestRunMatchesSeedLoop(t *testing.T) {
	rs := reqs(32, 5000, 1)
	eng := New()
	got, err := eng.Run(context.Background(), &fakeNet{n: 32, name: "fake"}, rs)
	if err != nil {
		t.Fatal(err)
	}
	want := seedLoop(&fakeNet{n: 32, name: "fake"}, rs)
	if got.Result != want {
		t.Fatalf("engine result %+v != seed loop %+v", got.Result, want)
	}
	if got.Throughput <= 0 || got.Elapsed <= 0 {
		t.Errorf("throughput/elapsed not populated: %+v", got)
	}
}

func TestGridDeterministicAcrossWorkers(t *testing.T) {
	tr := workload.Temporal(48, 8000, 0.6, 2)
	nets := []NetworkSpec{}
	for _, k := range []int{2, 3, 5} {
		k := k
		nets = append(nets, NetworkSpec{
			Name: "kary",
			Make: func(n int) sim.Network { return kary(n, k) },
		})
	}
	traces := []TraceSpec{
		{Name: tr.Name, N: tr.N, Reqs: tr.Reqs},
		{Name: "uniform", N: 48, Reqs: reqs(48, 6000, 7)},
	}
	run := func(workers int) [][]Result {
		grid, err := New(WithWorkers(workers), WithWindow(1000)).RunGrid(context.Background(), nets, traces)
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
	seq := run(1)
	par := run(8)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("grid results differ between 1 and 8 workers:\n%+v\nvs\n%+v", seq, par)
	}
	if seq[0][0].Routing <= 0 || seq[0][0].Requests != 8000 {
		t.Errorf("implausible cell %+v", seq[0][0])
	}
}

// cancelNet cancels its context from inside Serve at a fixed request
// index, making mid-trace cancellation deterministic.
type cancelNet struct {
	fakeNet
	at     int64
	cancel context.CancelFunc
}

func (c *cancelNet) Serve(u, v int) sim.Cost {
	cost := c.fakeNet.Serve(u, v)
	if c.served == c.at {
		c.cancel()
	}
	return cost
}

func TestRunCancellationMidTrace(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	net := &cancelNet{fakeNet: fakeNet{n: 16, name: "cancel"}, at: 30_000, cancel: cancel}
	rs := reqs(16, 100_000, 3)
	res, err := New().Run(ctx, net, rs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res.Requests < 30_000 || res.Requests >= int64(len(rs)) {
		t.Errorf("partial result should cover a strict prefix past the cancel point, served %d of %d",
			res.Requests, len(rs))
	}
}

func TestCancellationDuringWarmupEmitsNoWindow(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	net := &cancelNet{fakeNet: fakeNet{n: 16, name: "warmcancel"}, at: 2_000, cancel: cancel}
	rs := reqs(16, 50_000, 4)
	res, err := New(WithWarmup(10_000), WithWindow(1_000)).Run(ctx, net, rs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if len(res.Series) != 0 {
		t.Fatalf("cancellation inside the warmup prefix must not emit windows, got %+v", res.Series)
	}
	for _, s := range res.Series {
		if s.End <= s.Start {
			t.Errorf("corrupt window %+v", s)
		}
	}
}

func TestGridCancellationPropagates(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	nets := []NetworkSpec{{Make: func(n int) sim.Network { return &fakeNet{n: n, name: "x"} }}}
	traces := []TraceSpec{{N: 8, Reqs: reqs(8, 100, 1)}}
	_, err := New().RunGrid(ctx, nets, traces)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestWarmupAccounting(t *testing.T) {
	rs := reqs(16, 1000, 5)
	eng := New(WithWarmup(300))
	got, err := eng.Run(context.Background(), &fakeNet{n: 16, name: "warm"}, rs)
	if err != nil {
		t.Fatal(err)
	}
	if got.WarmupRequests != 300 || got.Requests != 700 {
		t.Fatalf("warmup split %d/%d, want 300/700", got.WarmupRequests, got.Requests)
	}
	all := seedLoop(&fakeNet{n: 16, name: "warm"}, rs)
	if got.Routing+got.WarmupRouting != all.Routing || got.Adjust+got.WarmupAdjust != all.Adjust {
		t.Errorf("warmup+measured != total: %+v vs %+v", got, all)
	}
	head := seedLoop(&fakeNet{n: 16, name: "warm"}, rs[:300])
	if got.WarmupRouting != head.Routing || got.WarmupAdjust != head.Adjust {
		t.Errorf("warmup window misaccounted: %+v vs %+v", got, head)
	}
	// Warmup longer than the trace measures nothing.
	over, err := New(WithWarmup(5000)).Run(context.Background(), &fakeNet{n: 16, name: "warm"}, rs)
	if err != nil {
		t.Fatal(err)
	}
	if over.Requests != 0 || over.WarmupRequests != 1000 {
		t.Errorf("oversized warmup split %d/%d", over.WarmupRequests, over.Requests)
	}
}

func TestWindowSeries(t *testing.T) {
	rs := reqs(16, 2500, 6)
	got, err := New(WithWarmup(500), WithWindow(1000)).Run(context.Background(), &fakeNet{n: 16, name: "series"}, rs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Series) != 2 {
		t.Fatalf("want 2 windows (1000+1000), got %d: %+v", len(got.Series), got.Series)
	}
	var routing, adjust int64
	prevEnd := 0
	for _, s := range got.Series {
		if s.Start != prevEnd || s.End <= s.Start {
			t.Errorf("window %+v not contiguous after %d", s, prevEnd)
		}
		prevEnd = s.End
		routing += s.Routing
		adjust += s.Adjust
	}
	if prevEnd != 2000 || routing != got.Routing || adjust != got.Adjust {
		t.Errorf("series does not tile the measured region: end %d, %d/%d vs %d/%d",
			prevEnd, routing, adjust, got.Routing, got.Adjust)
	}
}

func TestPercentiles(t *testing.T) {
	// 98 requests costing 1 and two costing 50: the 50th-smallest cost is
	// 1 and the 99th-smallest is 50.
	net := &scriptNet{costs: make([]int64, 100)}
	for i := range net.costs {
		net.costs[i] = 1
	}
	net.costs[42] = 50
	net.costs[77] = 50
	rs := make([]sim.Request, 100)
	for i := range rs {
		rs[i] = sim.Request{Src: 1, Dst: 2}
	}
	got, err := New().Run(context.Background(), net, rs)
	if err != nil {
		t.Fatal(err)
	}
	if got.P50Routing != 1 || got.P99Routing != 50 {
		t.Errorf("p50=%v p99=%v, want 1 and 50", got.P50Routing, got.P99Routing)
	}
}

type scriptNet struct {
	costs []int64
	i     int
}

func (s *scriptNet) Name() string { return "script" }
func (s *scriptNet) N() int       { return 4 }
func (s *scriptNet) Serve(u, v int) sim.Cost {
	c := s.costs[s.i]
	s.i++
	return sim.Cost{Routing: c}
}

func TestValidationRejectsBadTrace(t *testing.T) {
	for _, bad := range []sim.Request{{Src: 1, Dst: 99}, {Src: 0, Dst: 1}} {
		reqs := []sim.Request{{Src: 1, Dst: 2}, bad}
		if _, err := New().Run(context.Background(), &fakeNet{n: 4, name: "v"}, reqs); err == nil {
			t.Fatalf("out-of-range endpoint %+v accepted", bad)
		}
	}
}

func TestLinkChurnReporting(t *testing.T) {
	tr := workload.Temporal(32, 3000, 0.5, 9)
	res, err := New(WithLinkChurn(true)).Run(context.Background(), kary(32, 3), tr.Reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Adjust > 0 && res.LinkChurn <= res.Adjust {
		t.Errorf("churn %d should exceed rotations %d (each rotation rewires several links)",
			res.LinkChurn, res.Adjust)
	}
	// Without the option the field stays zero.
	off, err := New().Run(context.Background(), kary(32, 3), tr.Reqs)
	if err != nil {
		t.Fatal(err)
	}
	if off.LinkChurn != 0 {
		t.Errorf("churn tracked despite option off: %d", off.LinkChurn)
	}
}

func TestProgressEvents(t *testing.T) {
	var events []Progress
	eng := New(WithWindow(500), WithProgress(func(p Progress) { events = append(events, p) }), WithWorkers(2))
	nets := []NetworkSpec{{Name: "fake", Make: func(n int) sim.Network { return &fakeNet{n: n, name: "fake"} }}}
	traces := []TraceSpec{{Name: "t", N: 16, Reqs: reqs(16, 2000, 4)}}
	if _, err := eng.RunGrid(context.Background(), nets, traces); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no progress events")
	}
	last := events[len(events)-1]
	if last.Cells != 1 || last.CellsTotal != 1 || last.Requests != 2000 {
		t.Errorf("final event %+v", last)
	}
}

func TestProgressWithoutWindowFiresMidTrace(t *testing.T) {
	// Regression: flush is the only windowed emitter and returns immediately
	// when no window is configured, so WithProgress without WithWindow never
	// fired before a sequential trace completed (ksanbench -progress stayed
	// mute until a whole cell was done). The checkEvery cancellation
	// checkpoints must emit too.
	var events []Progress
	eng := New(WithProgress(func(p Progress) { events = append(events, p) }))
	rs := reqs(16, 10_000, 7)
	if _, err := eng.Run(context.Background(), &fakeNet{n: 16, name: "mute"}, rs); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no progress events without a window")
	}
	mid := 0
	prev := -1
	for _, p := range events {
		if p.Requests <= prev {
			t.Errorf("progress not monotone: %d after %d", p.Requests, prev)
		}
		prev = p.Requests
		if p.Requests > 0 && p.Requests < len(rs) {
			mid++
		}
		if p.Total != len(rs) || p.Network != "mute" {
			t.Errorf("event misses run metadata: %+v", p)
		}
	}
	if mid < 3 {
		t.Errorf("want mid-trace progress events every 2048 requests, got %d of %d total",
			mid, len(events))
	}
	if events[len(events)-1].Requests != len(rs) {
		t.Errorf("last event at %d requests, want a completion event at %d",
			events[len(events)-1].Requests, len(rs))
	}

	// Traces shorter than the checkpoint interval must still report
	// completion (the original bug: zero events without a window).
	events = events[:0]
	short := reqs(16, 2000, 8)
	if _, err := eng.Run(context.Background(), &fakeNet{n: 16, name: "short"}, short); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Requests != len(short) {
		t.Errorf("short windowless trace: events %+v, want exactly one completion event at %d",
			events, len(short))
	}

	// With a window configured, flush already emits at every boundary: the
	// checkpoints must stay quiet so the callback sees no duplicates.
	events = events[:0]
	withWin := New(WithWindow(1024), WithProgress(func(p Progress) { events = append(events, p) }))
	if _, err := withWin.Run(context.Background(), &fakeNet{n: 16, name: "win"}, rs); err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, p := range events {
		if seen[p.Requests] {
			t.Errorf("duplicate progress event at %d requests with a window configured", p.Requests)
		}
		seen[p.Requests] = true
	}
	if len(events) != (len(rs)+1023)/1024 {
		t.Errorf("windowed run emitted %d events, want one per window", len(events))
	}

	// Progress counts the warmup prefix too, so with or without a window
	// the final event lands on the whole trace.
	for _, opt := range []Option{WithWindow(1024), WithWindow(0)} {
		events = events[:0]
		warm := New(WithWarmup(3000), opt, WithProgress(func(p Progress) { events = append(events, p) }))
		if _, err := warm.Run(context.Background(), &fakeNet{n: 16, name: "warm"}, rs); err != nil {
			t.Fatal(err)
		}
		if len(events) == 0 || events[len(events)-1].Requests != len(rs) {
			t.Errorf("warmup run final event %+v, want %d requests", events, len(rs))
		}
	}
}

func TestParallelFor(t *testing.T) {
	var sum atomic.Int64
	if err := ParallelFor(context.Background(), 8, 1000, func(i int) error {
		sum.Add(int64(i))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := sum.Load(); got != 499_500 {
		t.Errorf("sum %d, every index must run exactly once", got)
	}
	boom := errors.New("boom")
	var ran atomic.Int64
	err := ParallelFor(context.Background(), 4, 100_000, func(i int) error {
		ran.Add(1)
		if i == 10 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	if ran.Load() == 100_000 {
		t.Error("error did not stop dispatch early")
	}
}

// TestWorkerPoolRace exercises the grid worker pool with shared result
// slices under -race (CI runs go test -race ./...).
func TestWorkerPoolRace(t *testing.T) {
	full, err := statictree.Full(64, 2)
	if err != nil {
		t.Fatal(err)
	}
	nets := []NetworkSpec{
		{Name: "static", Make: func(n int) sim.Network { return frozen("full", full) }},
		{Name: "fake", Make: func(n int) sim.Network { return &fakeNet{n: n, name: "fake"} }},
	}
	var traces []TraceSpec
	for s := int64(0); s < 8; s++ {
		traces = append(traces, TraceSpec{Name: "u", N: 64, Reqs: reqs(64, 3000, s)})
	}
	eng := New(WithWorkers(8), WithWindow(700), WithProgress(func(Progress) {}))
	grid, err := eng.RunGrid(context.Background(), nets, traces)
	if err != nil {
		t.Fatal(err)
	}
	for i := range grid {
		for j := range grid[i] {
			if grid[i][j].Requests != 3000 {
				t.Fatalf("cell (%d,%d) served %d", i, j, grid[i][j].Requests)
			}
		}
	}
}
