// Package engine is the streaming experiment engine behind the
// paper's evaluation and the one way to serve a trace: it serves
// communication traces on network topologies under the Section 2 cost
// model and adds the machinery a production-scale evaluation harness
// needs — context cancellation, warmup/measurement windows, per-window
// cost time-series, per-request routing percentiles, link-churn and
// wall-clock throughput reporting, progress callbacks, and deterministic
// parallel execution of declarative network×trace grids on a bounded
// worker pool.
//
// Determinism contract: every field of Result except the wall-clock pair
// (Elapsed, Throughput) is identical across runs and across worker counts.
// Every trace is served sequentially, one request at a time, on one
// goroutine (a self-adjusting network's state is the experiment); workers
// run whole grid cells, never parts of a trace.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/ksan-net/ksan/internal/hist"
	"github.com/ksan-net/ksan/internal/sim"
	"github.com/ksan-net/ksan/internal/workload"
)

// ChurnReporter is an optional Network extension for designs that account
// their own physical link churn (policy nets, whose rebuild adjusters
// replace the topology object wholesale).
type ChurnReporter interface {
	LinkChurn() int64
}

// edgeTracking matches networks that manage their own per-rotation
// edge-churn switch (policy nets propagate it across rebuild swaps, so
// the engine must not reach past them to the current tree).
type edgeTracking interface {
	SetTrackEdges(on bool)
}

// Engine runs traces on networks. Construct with New; the zero value is
// not usable. An Engine is immutable after construction and safe for
// concurrent use.
type Engine struct {
	workers  int
	warmup   int
	window   int
	churn    bool
	progress func(Progress)

	mu sync.Mutex // serializes progress callbacks
}

// Option configures an Engine.
type Option func(*Engine)

// WithWorkers bounds the worker pool that runs grid cells. Values below 1
// fall back to GOMAXPROCS.
func WithWorkers(n int) Option {
	return func(e *Engine) {
		if n >= 1 {
			e.workers = n
		}
	}
}

// WithWarmup excludes the first n requests of every trace from the
// measured result; their cost is still reported in the Warmup* fields.
func WithWarmup(n int) Option {
	return func(e *Engine) {
		if n > 0 {
			e.warmup = n
		}
	}
}

// WithWindow enables the per-window cost time-series: one WindowSample per
// w measured requests (plus a final partial window).
func WithWindow(w int) Option {
	return func(e *Engine) {
		if w > 0 {
			e.window = w
		}
	}
}

// WithProgress installs a progress callback. Callbacks are serialized, so
// fn need not be goroutine-safe; it must not block for long.
func WithProgress(fn func(Progress)) Option {
	return func(e *Engine) { e.progress = fn }
}

// WithLinkChurn enables physical link-churn accounting on networks that
// report it (a ChurnReporter), switching on their per-rotation edge
// tracking first. Off by default because tracking allocates on every
// rotation.
func WithLinkChurn(on bool) Option {
	return func(e *Engine) { e.churn = on }
}

// New constructs an Engine; defaults are GOMAXPROCS workers, no warmup, no
// time-series window, churn tracking off.
func New(opts ...Option) *Engine {
	e := &Engine{workers: runtime.GOMAXPROCS(0)}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Workers returns the configured worker-pool bound, so callers scheduling
// auxiliary work (e.g. static-tree DP solves) on ParallelFor can honor the
// same limit.
func (e *Engine) Workers() int { return e.workers }

// Run serves the materialized trace on the network and returns the
// extended result; it is RunGen on the trivial (already-materialized)
// generator. It honors ctx: on cancellation it returns the partial result
// accumulated so far together with ctx.Err().
func (e *Engine) Run(ctx context.Context, net sim.Network, reqs []sim.Request) (Result, error) {
	return e.runOne(ctx, net, workload.Trace{N: net.N(), Reqs: reqs}, "", nil)
}

// RunGen serves a generator's request stream on the network and returns
// the extended result. The trace is never materialized: warmup, windows,
// progress, cancellation checkpoints and per-request validation are all
// driven off the stream, so trace length is not memory-bound. It honors
// ctx: on cancellation it returns the partial result accumulated so far
// together with ctx.Err(); a stream error (bad CSV row, under-run phase)
// or an out-of-range request likewise ends the run with the contiguous
// prefix measured. Every network is served strictly sequentially; a
// frozen policy net answers from its static-stretch distance oracle.
func (e *Engine) RunGen(ctx context.Context, net sim.Network, gen workload.Generator) (Result, error) {
	return e.runOne(ctx, net, gen, "", nil)
}

// runOne is RunGen plus the grid bookkeeping (trace label, cell-progress
// decoration).
func (e *Engine) runOne(ctx context.Context, net sim.Network, gen workload.Generator, traceName string, decorate func(*Progress)) (Result, error) {
	res := Result{Result: sim.Result{Name: net.Name()}, Trace: traceName}

	// Unified churn accounting: first switch rotation-level edge tracking
	// on through the network's own toggle, so the setting survives
	// rebuild swaps, then read the ChurnReporter (policy nets fold both
	// rebuild churn and rotation churn into LinkChurn).
	var churner ChurnReporter
	var churnBase int64
	if e.churn {
		if n, ok := net.(edgeTracking); ok {
			n.SetTrackEdges(true)
		}
		if n, ok := net.(ChurnReporter); ok {
			churner = n
			churnBase = n.LinkChurn()
		}
	}

	total := gen.Len() // workload.UnknownLen for file-backed streams
	emit := func(p Progress) {
		if e.progress == nil {
			return
		}
		// decorate takes a pointer, so the copy it sees escapes to the
		// heap; declaring it after the nil check keeps a run without a
		// callback from allocating one per emit.
		d := p
		d.Network = res.Name
		d.Trace = traceName
		d.Total = total
		if decorate != nil {
			decorate(&d)
		}
		e.mu.Lock()
		e.progress(d)
		e.mu.Unlock()
	}

	start := time.Now()
	warm := e.warmup
	if total >= 0 && warm > total {
		warm = total
	}
	h, err := e.runSequential(ctx, net, gen, warm, &res, emit)
	res.Elapsed = time.Since(start)
	if secs := res.Elapsed.Seconds(); secs > 0 {
		res.Throughput = float64(res.Requests+res.WarmupRequests) / secs
	}
	if churner != nil {
		res.LinkChurn = churner.LinkChurn() - churnBase
	}
	res.P50Routing = h.Percentile(0.50)
	res.P99Routing = h.Percentile(0.99)
	return res, err
}

// runSequential serves the stream one request at a time, in order, on a
// single goroutine: the only sound schedule for self-adjusting networks,
// whose topology after request t is the input to request t+1. Cancellation
// is checked at window boundaries and every checkEvery requests; when no
// time-series window is configured the same checkpoints emit progress,
// plus one completion event after the last request, so a progress
// callback fires mid-trace and at the end even for traces shorter than
// checkEvery (flush, the only other emitter, is a no-op without a window
// — progress used to stay silent for the whole trace). With a window,
// flush already emits at every boundary including the final partial
// window, and the checkpoints stay quiet to avoid a duplicate stream.
//
// A stream error or an out-of-range request ends the run like
// cancellation does: partial window flushed, contiguous prefix
// measured, the error returned.
func (e *Engine) runSequential(ctx context.Context, net sim.Network, gen workload.Generator, warm int, res *Result, emit func(Progress)) (hist.Hist, error) {
	const checkEvery = 2048
	n := net.N()
	var h hist.Hist
	wStart := 0
	var wRouting, wAdjust int64
	flush := func(end int) {
		if e.window <= 0 || end <= wStart {
			return
		}
		res.Series = append(res.Series, WindowSample{Start: wStart, End: end, Routing: wRouting, Adjust: wAdjust})
		emit(Progress{Requests: warm + end})
		wStart = end
		wRouting, wAdjust = 0, 0
	}
	// fail ends the run at request index i without serving it.
	fail := func(i int, err error) (hist.Hist, error) {
		if m := i - warm; m > 0 {
			flush(m)
		}
		return h, err
	}
	i := 0
	for rq, rerr := range gen.Requests() {
		if rerr != nil {
			return fail(i, rerr)
		}
		if i%checkEvery == 0 {
			if ctx.Err() != nil {
				return fail(i, ctx.Err())
			}
			if i > 0 && e.window <= 0 {
				emit(Progress{Requests: i})
			}
		}
		if err := validateReq(rq, i, n); err != nil {
			return fail(i, err)
		}
		c := net.Serve(rq.Src, rq.Dst)
		if i++; i <= warm {
			res.WarmupRequests++
			res.WarmupRouting += c.Routing
			res.WarmupAdjust += c.Adjust
			continue
		}
		res.Requests++
		res.Routing += c.Routing
		res.Adjust += c.Adjust
		h.Observe(c.Routing)
		if e.window > 0 {
			wRouting += c.Routing
			wAdjust += c.Adjust
			if m := i - warm; m-wStart == e.window {
				flush(m)
			}
		}
	}
	flush(i - warm)
	if e.window <= 0 && i > 0 {
		emit(Progress{Requests: i})
	}
	return h, nil
}

// validateReq is the engine's request validation: one request checked as
// it is drawn from the stream.
func validateReq(rq sim.Request, i, n int) error {
	if rq.Src < 1 || rq.Src > n || rq.Dst < 1 || rq.Dst > n {
		return fmt.Errorf("engine: request %d (%d→%d) outside 1..%d", i, rq.Src, rq.Dst, n)
	}
	return nil
}
