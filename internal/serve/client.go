package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/ksan-net/ksan/internal/hist"
	"github.com/ksan-net/ksan/internal/sim"
	"github.com/ksan-net/ksan/internal/workload"
)

// counterFlush is how many completed requests a client accumulates
// locally before flushing them into the shared live counter: the live
// requests/sec display costs one atomic add per this many requests
// instead of one per request.
const counterFlush = 256

// shardAcc accumulates one client's view of one shard: the local serves
// it routed there (warmup included — these are the totals the per-shard
// sequential-equivalence property compares against a replay).
type shardAcc struct {
	requests, routing, adjust int64
	hist                      hist.Hist
}

// add accounts one served half.
func (a *shardAcc) add(c sim.Cost) {
	a.requests++
	a.routing += c.Routing
	a.adjust += c.Adjust
	a.hist.Observe(c.Routing)
}

// clientAcc is everything one client routine measures. Clients never
// share accumulators — each routine observes into its own and the pool
// merges them after the run drains — so measurement adds no locks to the
// request hot path.
type clientAcc struct {
	requests, routing, adjust, cross                 int64 // measurement region
	warmRequests, warmRouting, warmAdjust, warmCross int64
	routingHist, latencyHist                         hist.Hist
	perShard                                         []shardAcc
	faults                                           FaultStats // client-side ledger slice (timeouts, retries, failed, degraded, late)
	err                                              error
}

// account books one request whose source half ended o1 at cost c1 and
// whose destination half ended o2 at cost c2. Each half served OK counts
// on its shard, and only such a half: a degraded half touched no network
// state, and a failed or skipped one was never served. The request
// itself is failed if a half failed or was skipped, degraded if a half
// was stale-served, and healthy otherwise, in the warmup region when
// warm is set and in the measured one (with its latency lat, unless
// lat < 0) when it is not. A same-shard request has no destination
// half, so o2 and c2 are ignored.
func (a *clientAcc) account(r *Route, c1, c2 sim.Cost, o1, o2 uint8, warm bool, lat int64) {
	if o1 == outcomeOK {
		a.perShard[r.S1].add(c1)
	}
	routing, adjust, outcome := c1.Routing, c1.Adjust, o1
	if r.Cross {
		if o2 == outcomeOK {
			a.perShard[r.S2].add(c2)
		}
		routing += InterShardHop + c2.Routing
		adjust += c2.Adjust
		outcome = max(o1, o2)
	}
	switch {
	case outcome >= outcomeFailed:
		a.faults.FailedRequests++
	case outcome == outcomeDegraded:
		a.faults.DegradedRequests++
		a.faults.DegradedRouting += routing
	case warm:
		a.warmRequests++
		a.warmRouting += routing
		a.warmAdjust += adjust
		if r.Cross {
			a.warmCross++
		}
	default:
		a.requests++
		a.routing += routing
		a.adjust += adjust
		if r.Cross {
			a.cross++
		}
		a.routingHist.Observe(routing)
		if lat >= 0 {
			a.latencyHist.Observe(lat)
		}
	}
}

// client is one closed-loop load routine: it iterates its private pass of
// the workload stream (an independent SplitGen substream), serves each
// request to completion before drawing the next, and paces itself to its
// share of the aggregate target throughput.
type client struct {
	pool   *pool
	id     int
	gen    workload.Generator
	budget int64 // requests this client may serve; <0 = until stream end
	acc    clientAcc
	reply  chan response

	seq         uint64 // attempt sequence tag, matches replies to awaits
	outstanding int    // delivered requests whose replies are unconsumed
	timer       *time.Timer
	jit         uint64 // deterministic backoff-jitter stream
}

// Half-request outcomes, ordered by severity: a request's outcome is the
// worse of its halves'.
const (
	outcomeOK       uint8 = iota
	outcomeDegraded       // served read-only through a stale checkpoint oracle
	outcomeFailed         // timed out, or down after retries under fail-fast
	outcomeSkipped        // not attempted: the destination half after a failed source half
)

// resetTimer arms the client's reusable timer (Go 1.23 timer semantics:
// Reset discards any pending fire, so no drain dance is needed).
func (c *client) resetTimer(d time.Duration) {
	if c.timer == nil {
		c.timer = time.NewTimer(d)
		return
	}
	c.timer.Reset(d)
}

// sleepStop sleeps for d or until the pool halts, whichever comes first,
// and reports whether the pool is still running — so pacing waits and
// retry backoffs never delay cancellation by more than a scheduler tick.
func (c *client) sleepStop(d time.Duration) bool {
	if d <= 0 {
		return !c.pool.stop.Load()
	}
	c.resetTimer(d)
	select {
	case <-c.timer.C:
		return !c.pool.stop.Load()
	case <-c.pool.stopCh:
		c.timer.Stop()
		return false
	}
}

// run drives the client loop. It returns normally on stream end, budget
// exhaustion, or a pool-wide stop (duration elapsed or context
// cancelled); a stream error is terminal and recorded in the accumulator.
// Only fully-OK requests enter the warmup/measured serving totals;
// degraded and failed requests go to the fault ledger, with the OK halves
// of mixed requests still attributed to the shards that served them.
func (c *client) run() {
	p := c.pool
	c.acc.perShard = make([]shardAcc, p.part.S)
	// A holder must never block on a reply. Per shard, a client has at
	// most one pending reply per queue slot (C) plus one being served:
	// it publishes only when it then waits or serves the queue itself,
	// and it takes every delivered reply off its channel before it
	// returns from a deadline or serves a queue. S·(C+1) slots therefore
	// hold every reply a client can have pending at once.
	c.reply = make(chan response, p.part.S*(p.cfg.Clients+1))
	if plan := p.cfg.Faults; plan != nil {
		c.jit = mix64(plan.Seed ^ (uint64(c.id)+1)*0x9e3779b97f4a7c15)
	}

	var interval time.Duration
	if p.cfg.TargetOps > 0 {
		perClient := p.cfg.TargetOps / float64(p.cfg.Clients)
		interval = time.Duration(float64(time.Second) / perClient)
	}
	sample := p.cfg.LatencySample
	warmup := int64(p.cfg.Warmup)

	var served, unflushed int64
	start := time.Now()
	var r Route
	for rq, err := range c.gen.Requests() {
		if err != nil {
			c.acc.err = err
			break
		}
		if c.budget >= 0 && served >= c.budget {
			break
		}
		if p.stop.Load() {
			break
		}
		if interval > 0 {
			// Schedule-based pacing (the YCSB "throttle to target"
			// loop): sleep until this request's release time, computed
			// from the start so that transient stalls are caught up.
			if wait := time.Until(start.Add(time.Duration(served) * interval)); wait > 0 {
				if !c.sleepStop(wait) {
					break
				}
			}
		}

		p.part.Route(rq.Src, rq.Dst, &r)
		// A sampled latency is the difference of two monotonic-only
		// clock reads.
		timed := sample > 0 && served%int64(sample) == 0
		var t0 time.Duration
		if timed {
			t0 = time.Since(start)
		}
		c1, o1 := c.serveHalf(p.shards[r.S1], r.A1, r.B1)
		c2, o2 := sim.Cost{}, outcomeSkipped
		if r.Cross && o1 != outcomeFailed {
			// A failed source half fails the request; don't disturb the
			// destination shard for a request that cannot complete.
			c2, o2 = c.serveHalf(p.shards[r.S2], r.A2, r.B2)
		}
		lat := int64(-1)
		if timed {
			lat = int64(time.Since(start) - t0)
		}
		c.acc.account(&r, c1, c2, o1, o2, served < warmup, lat)

		served++
		unflushed++
		if unflushed == counterFlush {
			p.served.Add(unflushed)
			unflushed = 0
		}
	}
	if unflushed > 0 {
		p.served.Add(unflushed)
	}
}

// serveHalf serves one local (half-)request on a shard: lock-free through
// the distance oracle when the shard is frozen, under the shard's token
// otherwise. Without a plan that is one round trip. With one armed, down
// replies are retried up to plan.Retries times with backoff (each attempt
// ticks the shard's recovery clock), and the configured degraded fallback
// applies once retries run out. Timeouts are never retried — the request
// may have been delivered, and a delivered request is served exactly once
// (its late reply is drained).
func (c *client) serveHalf(s *shard, a, b int) (sim.Cost, uint8) {
	if s.oracle != nil {
		if a == b {
			return sim.Cost{}, outcomeOK
		}
		return sim.Cost{Routing: s.oracle.Dist(a, b)}, outcomeOK
	}
	for attempt := 0; ; attempt++ {
		c.seq++
		resp, ok := c.roundTrip(s, request{u: a, v: b, seq: c.seq, reply: c.reply})
		if !ok {
			c.acc.faults.Timeouts++
			return sim.Cost{}, outcomeFailed
		}
		if resp.status == statusOK {
			return resp.cost, outcomeOK
		}
		// Down reply (a plan is armed): safe to retry — the shard
		// rejected without serving.
		plan := c.pool.cfg.Faults
		if attempt < plan.Retries && !c.pool.stop.Load() {
			c.acc.faults.Retries++
			c.backoff(attempt)
			continue
		}
		if plan.Degraded == DegradedStale {
			if ix := s.stale.Load(); ix != nil {
				var cost sim.Cost
				if a != b {
					cost.Routing = ix.Dist(a, b)
				}
				return cost, outcomeDegraded
			}
		}
		return sim.Cost{}, outcomeFailed
	}
}

// roundTrip serves rq on an adjusting shard and returns its reply. A
// client that finds the token free serves rq itself, then every request
// published meanwhile, and releases the token: one CAS, one atomic add,
// no timer and no channel lock. A client that finds the token taken
// publishes rq — publishing is delivery — and announces it. If the
// announcement finds the token free, the client takes it and serves the
// queue, rq included; otherwise it waits for its reply, or for its
// deadline when plan.Timeout is set; ok is false when the deadline
// passes first. An attempt whose deadline passed before it could publish
// was never delivered. One that timed out after publishing stays
// outstanding until its late reply is consumed here or in
// drainOutstanding; its announcement already left it with a holder.
func (c *client) roundTrip(s *shard, rq request) (resp response, ok bool) {
	if s.acquire() {
		return s.serveOwn(rq.u, rq.v), true
	}
	var deadline <-chan time.Time
	if plan := c.pool.cfg.Faults; plan != nil && plan.Timeout > 0 {
		c.resetTimer(plan.Timeout)
		deadline = c.timer.C
	}
	select {
	case s.ch <- rq:
		c.outstanding++
	case <-deadline:
		return response{}, false
	}
	if s.announce() {
		// Empty the reply channel before serving the queue: the holder
		// replies to its own published requests too.
		resp, ok = c.consume(rq.seq)
		s.combine()
		if ok {
			return resp, true
		}
		// A stall took the token before rq was served, or rq's reply is
		// now on the channel: wait for it as any publisher does.
	}
	for {
		select {
		case r := <-c.reply:
			c.outstanding--
			if r.seq == rq.seq {
				return r, true
			}
			c.lateReply(r)
		case <-deadline:
			// A reply already delivered still counts.
			return c.consume(rq.seq)
		}
	}
}

// consume takes every reply already delivered off the client's channel,
// ledgering late ones, and returns the reply to attempt seq if it was
// among them.
func (c *client) consume(seq uint64) (resp response, ok bool) {
	for {
		select {
		case r := <-c.reply:
			c.outstanding--
			if r.seq == seq {
				resp, ok = r, true
			} else {
				c.lateReply(r)
			}
		default:
			return resp, ok
		}
	}
}

// lateReply accounts a reply that arrived after its attempt's
// deadline. The shard did serve the half — exactly once, the delivered
// request was simply slow — so an OK late half stays in the per-shard
// serve totals (keeping them equal to what the shards actually did) and
// is ledgered; the request itself was already counted as a timeout.
func (c *client) lateReply(r response) {
	if r.status != statusOK {
		return
	}
	c.acc.faults.LateReplies++
	c.acc.faults.LateRouting += r.cost.Routing
	c.acc.perShard[r.shard].add(r.cost)
}

// drainOutstanding consumes every delivered-but-unconsumed reply before
// the client exits. Every published request has a holder that serves it
// (the last holder rechecks the queue after letting go, a stall sleeper
// wakes when the pool halts), so the drain always terminates, and the
// late serves stay in the per-shard totals.
func (c *client) drainOutstanding() {
	for c.outstanding > 0 {
		r := <-c.reply
		c.outstanding--
		c.lateReply(r)
	}
}

// backoff sleeps before retry number attempt+1: exponential from
// plan.Backoff, capped at plan.BackoffCap, with deterministic jitter in
// [1/2, 1) drawn from a splitmix64 stream seeded by (plan.Seed, client
// id) — a replayed fault schedule backs off identically, run after run.
func (c *client) backoff(attempt int) {
	plan := c.pool.cfg.Faults
	if plan.Backoff <= 0 {
		return
	}
	if attempt > 30 {
		attempt = 30
	}
	d := plan.Backoff << uint(attempt)
	if d <= 0 { // overflowed
		d = plan.BackoffCap
	}
	if plan.BackoffCap > 0 && d > plan.BackoffCap {
		d = plan.BackoffCap
	}
	c.jit = mix64(c.jit)
	frac := 0.5 + float64(c.jit>>11)/float64(1<<53)/2
	c.sleepStop(time.Duration(float64(d) * frac))
}

// pool is the shared run state of one serving run.
type pool struct {
	cfg      Config
	part     *Partition
	shards   []*shard
	sleepers sync.WaitGroup // running stall sleepers
	stop     atomic.Bool
	stopCh   chan struct{}
	stopOnce sync.Once
	served   atomic.Int64
}

// halt flips the stop flag and wakes every client sleeping in pacing or
// backoff waits and every stall sleeper.
func (p *pool) halt() {
	p.stopOnce.Do(func() {
		p.stop.Store(true)
		close(p.stopCh)
	})
}
