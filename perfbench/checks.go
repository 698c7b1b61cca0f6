package main

import (
	"context"
	"fmt"

	"github.com/ksan-net/ksan/internal/engine"
	"github.com/ksan-net/ksan/internal/serve"
	"github.com/ksan-net/ksan/internal/spec"
	"github.com/ksan-net/ksan/internal/statictree"
)

// defaultSeed is the seed the benchmark was built with; README.md names a
// held-out seed for later claims.
const defaultSeed = 1

// totals is what a workload must serve, exactly, on every round of one
// seed.
type totals struct {
	Routing, Adjust int64
	Faults          serve.FaultStats
}

// golden holds each workload's totals for defaultSeed at full size. splay-temporal-k4's come from an engine replay of the same
// trace (TestGoldenTemporalFromEngine re-derives them), the others from
// serving runs; every run also checks the engine replay and the solver
// cost for its own seed.
var golden = map[string]totals{
	"splay-temporal-k4":        {Routing: 885201, Adjust: 763580},
	"splay-uniform-k32-s2":     {Routing: 1839278, Adjust: 1745404},
	"offline-opt-projector-k4": {Routing: 20937564},
	"lazy-hotspot-faulted": {Routing: 3541249, Adjust: 1047714, Faults: serve.FaultStats{
		Crashes: 3, Recoveries: 3, Checkpoints: 200, ReplayedRequests: 900, ReplayRouting: 7938,
		Rejected: 30, Retries: 20, DegradedRequests: 10, DegradedRouting: 89}},
}

// roundTotals extracts a round's deterministic totals. Wall-clock fault
// counters (timeouts, late replies) belong there too: on a healthy run
// they are zero.
func roundTotals(r *round) totals {
	t := totals{Routing: r.stats.Routing, Adjust: r.stats.Adjust}
	if r.stats.Faults != nil {
		t.Faults = *r.stats.Faults
	}
	return t
}

// checkRound verifies one round's outputs: the request ledger balances,
// aggregate routing decomposes into the shards' routing plus the
// inter-shard hops, and the workload-specific invariants hold.
func checkRound(w *workloadDef, r *round, m int) error {
	s := r.stats
	if got := r.served() + r.failed(); got != int64(m) {
		return fmt.Errorf("served %d + failed %d != attempted %d", r.served(), r.failed(), m)
	}
	if r.failed() != 0 {
		return fmt.Errorf("%d requests failed", r.failed())
	}
	var shardRouting int64
	for _, ps := range s.PerShard {
		shardRouting += ps.Routing
	}
	if want := shardRouting + s.CrossShard*serve.InterShardHop; s.Routing+s.WarmupRouting != want {
		return fmt.Errorf("aggregate routing %d != per-shard %d + %d cross-shard × %d",
			s.Routing+s.WarmupRouting, shardRouting, s.CrossShard, serve.InterShardHop)
	}
	if inst := r.inst; inst.tree != nil {
		if got := statictree.TotalDistance(inst.tree, inst.demand); got != inst.solverCost {
			return fmt.Errorf("solver cost %d != TotalDistance %d on the sampled demand", inst.solverCost, got)
		}
	}
	if w.faults != nil {
		if err := checkFaultLedger(w.faults(m), m, s.Faults); err != nil {
			return err
		}
	}
	return nil
}

// checkFaultLedger verifies the fault ledger against what the plan
// scripts for one client on one shard.
func checkFaultLedger(fs *spec.FaultSpec, m int, f *serve.FaultStats) error {
	p := fs.Plan()
	var want serve.FaultStats
	var lossy int64
	for _, ev := range p.Events {
		want.Crashes++
		want.Recoveries++
		want.ReplayedRequests += ev.At % p.CheckpointEvery
		if ev.RecoverAfter > 0 {
			lossy += ev.RecoverAfter
		}
	}
	attempts := int64(p.Retries + 1)
	want.Rejected = lossy
	want.DegradedRequests = lossy / attempts
	want.Retries = want.DegradedRequests * int64(p.Retries)
	want.Checkpoints = 1 + (int64(m)-want.DegradedRequests)/p.CheckpointEvery
	got := *f
	got.ReplayRouting, got.ReplayAdjust, got.DegradedRouting = 0, 0, 0
	if got != want {
		return fmt.Errorf("fault ledger %+v, plan scripts %+v", got, want)
	}
	return nil
}

// checkRun verifies what only a whole run can: every round serves
// identical totals, which match the golden totals for the default seed at
// full size.
func checkRun(w *workloadDef, rounds []*round, seed int64, fullSize bool) error {
	first := roundTotals(rounds[0])
	for i, r := range rounds[1:] {
		if got := roundTotals(r); got != first {
			return fmt.Errorf("round %d totals %+v differ from round 0's %+v", i+1, got, first)
		}
	}
	if want, ok := golden[w.name]; ok && seed == defaultSeed && fullSize {
		if first != want {
			return fmt.Errorf("totals %+v differ from the golden %+v for seed %d", first, want, seed)
		}
	}
	return nil
}

// engineReplay serves the round's trace through the sequential engine on
// a fresh network and returns its result. With one shard and one client
// serve.Run must reproduce it bit for bit.
func engineReplay(inst *instance) (engine.Result, error) {
	net, err := inst.mk(inst.gen.Nodes())
	if err != nil {
		return engine.Result{}, err
	}
	return engine.New(engine.WithWorkers(1)).RunGen(context.Background(), net, inst.gen)
}

// checkEngine compares a round with its engine replay. A fault-free round
// with one client, or on a frozen network, must match it exactly.
func checkEngine(r *round, res engine.Result) error {
	s := r.stats
	if res.Requests != s.Requests || res.Routing != s.Routing || res.Adjust != s.Adjust {
		return fmt.Errorf("%w: serve.Run served %d requests, routing %d, adjust %d; the engine replay %d, %d, %d",
			errCheck, s.Requests, s.Routing, s.Adjust, res.Requests, res.Routing, res.Adjust)
	}
	return nil
}
