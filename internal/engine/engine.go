// Package engine is the streaming, sharded experiment engine behind the
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
// Self-adjusting networks are always served sequentially (their state is
// the experiment); only networks that opt in via sim.BatchServer — and,
// when they also carry sim.BatchGate, report Batchable — have their
// traces sharded across goroutines, and integer cost merging is
// associative, so the totals cannot depend on the sharding.
package engine

import (
	"context"
	"fmt"
	"iter"
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
	validate bool
	churn    bool
	progress func(Progress)

	mu sync.Mutex // serializes progress callbacks
}

// Option configures an Engine.
type Option func(*Engine)

// WithWorkers bounds the worker pool used for grid cells and batch-server
// shards. Values below 1 fall back to GOMAXPROCS.
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

// WithValidation toggles trace validation (on by default): runs reject
// requests whose endpoints fall outside 1..net.N() with an error instead of
// panicking deep inside a network. Validation is inline — each request is
// checked as it is drawn from the stream, so a run ends at the first bad
// request with the contiguous prefix before it measured and reported.
func WithValidation(on bool) Option {
	return func(e *Engine) { e.validate = on }
}

// WithLinkChurn enables physical link-churn accounting on networks that
// report it (a ChurnReporter), switching on their per-rotation edge
// tracking first. Off by default because tracking allocates on every
// rotation.
func WithLinkChurn(on bool) Option {
	return func(e *Engine) { e.churn = on }
}

// New constructs an Engine; defaults are GOMAXPROCS workers, no warmup, no
// time-series window, validation on, churn tracking off.
func New(opts ...Option) *Engine {
	e := &Engine{
		workers:  runtime.GOMAXPROCS(0),
		validate: true,
	}
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
	return e.runOne(ctx, net, workload.Trace{N: net.N(), Reqs: reqs}, "", nil, e.workers)
}

// RunGen serves a generator's request stream on the network and returns
// the extended result. The trace is never materialized: warmup, windows,
// progress, cancellation checkpoints and per-request validation are all
// driven off the stream, so trace length is not memory-bound. It honors
// ctx: on cancellation it returns the partial result accumulated so far
// together with ctx.Err(); a stream error (bad CSV row, under-run phase)
// or an out-of-range request likewise ends the run with the contiguous
// prefix measured. Networks implementing sim.BatchServer are evaluated
// through the batch path (chunk waves sharded across the worker pool when
// workers > 1); everything else is served strictly sequentially.
func (e *Engine) RunGen(ctx context.Context, net sim.Network, gen workload.Generator) (Result, error) {
	return e.runOne(ctx, net, gen, "", nil, e.workers)
}

// runOne is RunGen plus the grid bookkeeping (trace label, cell-progress
// decoration) and an explicit shard bound: grid cells already occupy the
// worker pool, so they pass shardWorkers=1 to keep total concurrency at
// the configured bound instead of workers².
func (e *Engine) runOne(ctx context.Context, net sim.Network, gen workload.Generator, traceName string, decorate func(*Progress), shardWorkers int) (Result, error) {
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
	var h hist.Hist
	var err error
	bs, batch := net.(sim.BatchServer)
	if batch {
		if g, ok := net.(sim.BatchGate); ok && !g.Batchable() {
			batch = false
		}
	}
	if batch {
		h, err = e.runBatch(ctx, bs, gen, net.N(), warm, &res, emit, shardWorkers)
	} else {
		h, err = e.runSequential(ctx, net, gen, warm, &res, emit)
	}
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
// A stream error or (with validation on) an out-of-range request ends the
// run like cancellation does: partial window flushed, contiguous prefix
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
		if e.validate {
			if err := validateReq(rq, i, n); err != nil {
				return fail(i, err)
			}
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

// runBatch evaluates a batch-capable (static) network against the stream:
// the warmup prefix first, then the measured region in waves — up to
// shardWorkers chunks are drawn from the stream (window-sized when a
// time-series is requested, load-balancing-sized otherwise), served
// concurrently on the worker pool, and merged back in order before the
// next wave is drawn. Peak memory is shardWorkers×chunk requests (the
// buffers are reused across waves), never the trace; and because integer
// cost merging is associative and chunk boundaries coincide with window
// boundaries whenever a window is configured, the result is bit-identical
// to the former whole-slice sharding. Workers emit progress as their
// chunks complete (cumulative served count, made monotone by taking the
// counter update and the emit under one lock).
func (e *Engine) runBatch(ctx context.Context, bs sim.BatchServer, gen workload.Generator, n, warm int, res *Result, emit func(Progress), shardWorkers int) (hist.Hist, error) {
	if shardWorkers < 1 {
		shardWorkers = 1
	}
	next, stop := iter.Pull2(gen.Requests())
	defer stop()

	// read fills buf with up to max validated requests, advancing the
	// global request index; it returns the stream's error, if any, after
	// the requests that precede it.
	idx := 0
	read := func(buf []sim.Request, max int) ([]sim.Request, error) {
		for len(buf) < max {
			rq, rerr, ok := next()
			if !ok {
				return buf, nil
			}
			if rerr != nil {
				return buf, rerr
			}
			if e.validate {
				if err := validateReq(rq, idx, n); err != nil {
					return buf, err
				}
			}
			idx++
			buf = append(buf, rq)
		}
		return buf, nil
	}

	if warm > 0 {
		wbuf, rerr := read(make([]sim.Request, 0, warm), warm)
		if len(wbuf) > 0 {
			bc := bs.ServeBatch(wbuf)
			res.WarmupRequests = int64(len(wbuf))
			res.WarmupRouting = bc.Routing
			res.WarmupAdjust = bc.Adjust
		}
		if rerr != nil {
			return hist.Hist{}, rerr
		}
		warm = len(wbuf)
	}

	chunk := e.window
	if chunk <= 0 {
		if total := gen.Len(); total >= 0 {
			chunk = (total - warm + shardWorkers*4 - 1) / (shardWorkers * 4)
		} else {
			chunk = 8192 // unknown-length stream: fixed wave granularity
		}
		if chunk < 1 {
			chunk = 1
		}
	}

	bufs := make([][]sim.Request, shardWorkers)
	costs := make([]sim.BatchCost, shardWorkers)
	done := make([]bool, shardWorkers)
	var pmu sync.Mutex
	var completed int
	var total sim.BatchCost
	measured := 0 // absolute measured index of the current wave's start
	for {
		if err := ctx.Err(); err != nil {
			res.Routing = total.Routing
			res.Adjust = total.Adjust
			return total.Hist, err
		}
		// Draw the wave: up to shardWorkers chunks from the stream.
		filled, exhausted := 0, false
		var streamErr error
		for filled < shardWorkers && !exhausted && streamErr == nil {
			if bufs[filled] == nil {
				bufs[filled] = make([]sim.Request, 0, chunk)
			}
			bufs[filled], streamErr = read(bufs[filled][:0], chunk)
			if len(bufs[filled]) == 0 {
				break
			}
			exhausted = len(bufs[filled]) < chunk
			filled++
		}
		var perr error
		if filled > 0 {
			for i := range done[:filled] {
				done[i] = false
			}
			perr = ParallelFor(ctx, shardWorkers, filled, func(i int) error {
				costs[i] = bs.ServeBatch(bufs[i])
				done[i] = true
				if e.progress != nil {
					pmu.Lock()
					completed += len(bufs[i])
					emit(Progress{Requests: warm + completed})
					pmu.Unlock()
				}
				return nil
			})
			// Merge the completed prefix in order, so a cancelled run
			// still reports a contiguous, well-ordered partial result.
			for i := 0; i < filled && done[i]; i++ {
				res.Requests += int64(len(bufs[i]))
				if e.window > 0 {
					res.Series = append(res.Series, WindowSample{
						Start: measured + i*chunk, End: measured + i*chunk + len(bufs[i]),
						Routing: costs[i].Routing, Adjust: costs[i].Adjust,
					})
				}
				total.Merge(costs[i])
			}
			measured = int(res.Requests)
		}
		res.Routing = total.Routing
		res.Adjust = total.Adjust
		switch {
		case streamErr != nil:
			return total.Hist, streamErr
		case perr != nil:
			return total.Hist, perr
		case exhausted || filled == 0:
			return total.Hist, ctx.Err()
		}
	}
}
