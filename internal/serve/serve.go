// Package serve is the concurrent sharded serving front-end: it turns the
// strictly-sequential evaluation engine into a system that serves a
// request stream from many client routines at once.
//
// The node space 1..n is hash-partitioned across S independent shards,
// each owning a private network instance (its tree, trigger state and
// demand window) behind a single-writer token; a deterministic router
// maps every request to the shard(s) that serve it, charging cross-shard
// pairs under a documented inter-shard cost rule; and C closed-loop
// client routines drive the shards, each iterating its own private pass
// of the workload stream (workload.SplitGen — the YCSB per-routine-state
// pattern, no locks on the request hot path). Frozen shards —
// compositions whose trigger can never fire, detected through the
// StaticOracle hook — are served lock-free by the clients themselves
// through the shard's Euler-tour/RMQ distance oracle. Every other shard
// is served by the client that holds its token, on the client's own
// goroutine. The token is an atomic word, so a client that finds it free
// takes it with one CAS and lets it go with one atomic add; a client
// that finds it held publishes its request on the shard's channel for
// the holder, which serves every such request before it lets go (flat
// combining). Each shard thus keeps one serve sequence, preserving the
// repository-wide single-writer contract on serve paths (DESIGN.md §11).
//
// Measurement is bounded-memory by construction: every per-request
// observation goes into a mergeable log-bucketed hist.Hist, so per-client
// and per-shard statistics combine into global percentiles without sample
// buffers.
package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ksan-net/ksan/internal/hist"
	"github.com/ksan-net/ksan/internal/sim"
	"github.com/ksan-net/ksan/internal/workload"
)

// Config parameterizes one serving run. The zero value means: one shard,
// as many clients as shards, unthrottled, no warmup, serve the stream to
// its end, no latency sampling, no live-rate reporting.
type Config struct {
	// Shards is the number of node-space partitions (>= 1; 0 means 1).
	Shards int
	// Clients is the number of closed-loop client routines (0 means one
	// per shard). Each client iterates its own round-robin substream of
	// the workload (workload.SplitGen), so request generation needs no
	// locks; the cost is that every client scans the full underlying
	// stream to extract its share (generators are O(ns)/request, so this
	// is generation work, not serve-path work).
	Clients int
	// TargetOps throttles the aggregate offered load to this many
	// requests/sec, spread evenly across clients (0 = unthrottled).
	TargetOps float64
	// Warmup is the number of requests each client serves before its
	// measurement region begins. Warmup requests adjust network state and
	// are excluded from measured totals and histograms (reported
	// separately); note this is per client routine, not a global prefix —
	// with one client the two coincide.
	Warmup int
	// MaxRequests caps the total requests served across all clients
	// (split evenly; 0 = serve every client's substream to its end).
	MaxRequests int64
	// Duration stops the run after this much wall-clock time (0 = no
	// limit). Stopping by duration is a normal completion, not an error.
	Duration time.Duration
	// LatencySample measures closed-loop request latency on every k-th
	// request of each client (1 = every request, 0 = latency off). The
	// routing-cost histograms are always exact and unsampled.
	LatencySample int
	// OnRate, when set, receives a live aggregate-throughput sample every
	// RateEvery (default 1s) from a reporter goroutine.
	OnRate    func(RateSample)
	RateEvery time.Duration
	// Faults arms the deterministic fault-injection machinery (DESIGN.md
	// §12): scripted crashes/stalls at logical trigger points, periodic
	// checkpoints with snapshot+replay recovery, client deadlines/retries,
	// and degraded-mode serving. nil (the default) disarms everything:
	// shards neither log nor checkpoint, waits have no deadline, and
	// frozen shards are served lock-free. With a plan armed, every shard
	// — frozen included — is served under its token, and every shard
	// network must support exact checkpoint/restore (tree-backed policy
	// compositions do; custom substrates are rejected).
	Faults *FaultPlan
}

// RateSample is one live-throughput report.
type RateSample struct {
	Elapsed  time.Duration
	Requests int64   // requests completed since the run started
	Rate     float64 // requests/sec since the previous sample
}

// ShardStats is one shard's serving totals: every local serve it
// performed (gateway halves included, warmup included — these are the
// raw sequential-semantics totals the equivalence property pins).
type ShardStats struct {
	Shard    int
	Nodes    int
	Requests int64 // local serve calls (a cross-shard request counts on both shards)
	Routing  int64
	Adjust   int64
	Hist     *hist.Hist // local serve routing costs
	// Fault-ledger slice of this shard (zero unless a plan was armed).
	Crashes     int64
	Recoveries  int64
	Checkpoints int64
	Replayed    int64 // requests re-served from the replay log
	Rejected    int64 // down replies sent while crashed
}

// Stats aggregates a serving run. The measurement region excludes each
// client's warmup prefix; warmup totals are reported separately, mirroring
// the engine's Result shape. Cross-shard requests charge their two local
// path segments plus InterShardHop, so aggregate Routing exceeds the sum
// of per-shard Routing by exactly InterShardHop per cross-shard request.
type Stats struct {
	Network string
	Trace   string
	Shards  int
	Clients int

	Requests   int64 // measurement region
	Routing    int64
	Adjust     int64
	CrossShard int64

	WarmupRequests int64
	WarmupRouting  int64
	WarmupAdjust   int64
	WarmupCross    int64

	RoutingHist *hist.Hist // full per-request routing cost (hop included), measured region
	LatencyHist *hist.Hist // sampled closed-loop latency, nanoseconds, measured region

	PerShard []ShardStats

	// Faults is the run's fault ledger (nil when no plan was armed).
	Faults *FaultStats

	Elapsed    time.Duration
	Throughput float64 // requests/sec, warmup included (the engine's convention)
}

// Total returns measured routing plus adjustment cost.
func (s *Stats) Total() int64 { return s.Routing + s.Adjust }

// Run executes one serving run: partition the node space of gen across
// cfg.Shards shards, build one network per shard with mk (sized to the
// shard's node count), and drive the shards from cfg.Clients closed-loop
// client routines until the stream, the budget, the duration, or ctx ends.
//
// Determinism: with one shard and one client, the serve sequence is
// exactly the generator stream and the run reproduces the sequential
// engine bit-for-bit (identity partition, no cross-shard traffic). With
// one client and S shards, each shard serves Partition.Project's
// subsequence in order. With C clients, per-shard arrival order
// interleaves client substreams nondeterministically — but every
// adjusting shard still serves a single well-defined sequence
// (single-writer token), and serving that sequence in order on a fresh
// network reproduces the shard's totals.
//
// Cancellation of ctx stops the run and returns the partial Stats
// together with ctx.Err(); cfg.Duration elapsing is a normal completion.
func Run(ctx context.Context, cfg Config, mk func(n int) (sim.Network, error), gen workload.Generator) (*Stats, error) {
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.Clients == 0 {
		cfg.Clients = cfg.Shards
	}
	if cfg.Shards < 1 || cfg.Clients < 1 || cfg.Warmup < 0 || cfg.MaxRequests < 0 ||
		cfg.TargetOps < 0 || cfg.LatencySample < 0 || cfg.Duration < 0 {
		return nil, fmt.Errorf("serve: invalid config %+v", cfg)
	}

	part, err := NewPartition(gen.Nodes(), cfg.Shards)
	if err != nil {
		return nil, err
	}
	var events [][]FaultEvent
	if cfg.Faults != nil {
		if events, err = cfg.Faults.validate(cfg.Shards); err != nil {
			return nil, err
		}
	}
	p := &pool{cfg: cfg, part: part, shards: make([]*shard, cfg.Shards), stopCh: make(chan struct{})}
	for i := range p.shards {
		net, err := mk(part.Size(i))
		if err != nil {
			return nil, fmt.Errorf("serve: building shard %d (%d nodes): %w", i, part.Size(i), err)
		}
		s := &shard{id: i, nodes: part.Size(i), net: net,
			plan: cfg.Faults, stop: p.stopCh, sleepers: &p.sleepers}
		p.shards[i] = s
		if cfg.Faults != nil {
			// Every shard must support exact checkpoint/restore.
			rec, ok := net.(recoverable)
			if !ok || !rec.Checkpointable() {
				return nil, fmt.Errorf("serve: fault plan armed, but shard %d network %q cannot checkpoint/restore",
					i, net.Name())
			}
			s.recov, s.events = rec, events[i]
			s.checkpoint() // recovery point for a crash before the first interval
		} else if ss, ok := net.(staticServer); ok {
			if ix, frozen := ss.StaticOracle(); frozen {
				s.oracle = ix
			}
		}
		if s.oracle == nil {
			// A client waits on at most one published request at a time,
			// so with C slots a publish blocks only while requests that
			// timed out earlier still fill the queue.
			s.ch = make(chan request, cfg.Clients)
		}
	}

	// Stop signals: wall-clock duration (normal completion) and context
	// cancellation (error). Both halt the pool, which flips the flag
	// clients poll and wakes any client sleeping in pacing or backoff and
	// any stall sleeper.
	// Run waits for the watcher as for the reporter: a watcher still
	// parked when Run returns would keep the pool, and with it every
	// shard's network, reachable until it is scheduled.
	watchDone := make(chan struct{})
	if cfg.Duration > 0 {
		t := time.AfterFunc(cfg.Duration, p.halt)
		defer t.Stop()
	}
	var background sync.WaitGroup // the stop watcher and the rate reporter
	background.Add(1)
	go func() {
		defer background.Done()
		select {
		case <-ctx.Done():
			p.halt()
		case <-watchDone:
		}
	}()

	if cfg.OnRate != nil {
		every := cfg.RateEvery
		if every <= 0 {
			every = time.Second
		}
		background.Add(1)
		go func() {
			defer background.Done()
			tick := time.NewTicker(every)
			defer tick.Stop()
			start := time.Now()
			var prev int64
			var prevAt time.Duration
			for {
				select {
				case <-watchDone:
					return
				case <-tick.C:
					now := time.Since(start)
					cur := p.served.Load()
					rate := float64(cur-prev) / (now - prevAt).Seconds()
					cfg.OnRate(RateSample{Elapsed: now, Requests: cur, Rate: rate})
					prev, prevAt = cur, now
				}
			}
		}()
	}

	clients := make([]*client, cfg.Clients)
	var wg sync.WaitGroup
	var looping atomic.Int64 // clients still in their request loop
	looping.Store(int64(cfg.Clients))
	start := time.Now()
	for i := range clients {
		budget := int64(-1)
		if cfg.MaxRequests > 0 {
			budget = cfg.MaxRequests / int64(cfg.Clients)
			if int64(i) < cfg.MaxRequests%int64(cfg.Clients) {
				budget++
			}
		}
		clients[i] = &client{pool: p, id: i, gen: workload.SplitGen(gen, i, cfg.Clients), budget: budget}
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.run()
			if looping.Add(-1) == 0 {
				// No request can follow: halt, so that a stall sleeper
				// wakes and serves what the clients still wait on.
				p.halt()
			}
			c.drainOutstanding()
		}(clients[i])
	}
	wg.Wait()
	p.sleepers.Wait()
	elapsed := time.Since(start)
	close(watchDone)
	background.Wait()

	stats := &Stats{
		Network: p.shards[0].net.Name(),
		Trace:   gen.Label(),
		Shards:  cfg.Shards,
		Clients: cfg.Clients,
		Elapsed: elapsed,
	}
	stats.RoutingHist = new(hist.Hist)
	stats.LatencyHist = new(hist.Hist)
	stats.PerShard = make([]ShardStats, cfg.Shards)
	for i, s := range p.shards {
		stats.PerShard[i] = ShardStats{Shard: i, Nodes: s.nodes, Hist: new(hist.Hist),
			Crashes: s.faults.Crashes, Recoveries: s.faults.Recoveries,
			Checkpoints: s.faults.Checkpoints, Replayed: s.faults.ReplayedRequests,
			Rejected: s.faults.Rejected}
	}
	if cfg.Faults != nil {
		stats.Faults = new(FaultStats)
		for _, s := range p.shards {
			stats.Faults.merge(&s.faults)
		}
		for _, c := range clients {
			stats.Faults.merge(&c.acc.faults)
		}
	}
	var streamErr error
	for _, c := range clients {
		a := &c.acc
		stats.Requests += a.requests
		stats.Routing += a.routing
		stats.Adjust += a.adjust
		stats.CrossShard += a.cross
		stats.WarmupRequests += a.warmRequests
		stats.WarmupRouting += a.warmRouting
		stats.WarmupAdjust += a.warmAdjust
		stats.WarmupCross += a.warmCross
		stats.RoutingHist.Merge(&a.routingHist)
		stats.LatencyHist.Merge(&a.latencyHist)
		for sh := range stats.PerShard {
			ps, as := &stats.PerShard[sh], &a.perShard[sh]
			ps.Requests += as.requests
			ps.Routing += as.routing
			ps.Adjust += as.adjust
			ps.Hist.Merge(&as.hist)
		}
		if a.err != nil && streamErr == nil {
			streamErr = a.err
		}
	}
	if secs := elapsed.Seconds(); secs > 0 {
		stats.Throughput = float64(stats.Requests+stats.WarmupRequests) / secs
	}
	if streamErr != nil {
		return stats, fmt.Errorf("serve: workload stream: %w", streamErr)
	}
	if err := ctx.Err(); err != nil {
		return stats, err
	}
	return stats, nil
}
