package main

import (
	"fmt"
	"time"

	"github.com/ksan-net/ksan/internal/core"
	"github.com/ksan-net/ksan/internal/engine"
	"github.com/ksan-net/ksan/internal/policy"
	"github.com/ksan-net/ksan/internal/serve"
	"github.com/ksan-net/ksan/internal/sim"
	"github.com/ksan-net/ksan/internal/spec"
	"github.com/ksan-net/ksan/internal/statictree"
	"github.com/ksan-net/ksan/internal/workload"
)

// demandPrefix is how many requests of the projector stream the offline
// workload samples as its demand before it solves for the optimal tree.
const demandPrefix = 1_000_000

// checkpointEvery is the lazy workload's checkpoint interval in local
// serves.
const checkpointEvery = 2000

// workloadDef is one benchmark workload: a network served on a trace by S
// shards and C closed-loop clients. README.md says why each exists. Every
// workload's totals repeat exactly for a seed: each has one client, or a
// frozen network whose costs do not depend on the arrival order.
type workloadDef struct {
	name string
	// network is the served network's spec def. The zero def means the
	// offline optimum instead: the optimal static 4-ary tree for a demand
	// sampled from the stream's prefix, frozen as never × none.
	network         spec.NetworkDef
	trace           func(seed int64, m int) spec.TraceDef
	shards, clients int
	// requests is the trace length of one round.
	requests int
	// faults scripts the fault plan of a round of m requests (nil: none).
	faults func(m int) *spec.FaultSpec
}

var workloads = []workloadDef{
	{
		name:    "splay-temporal-k4",
		network: spec.NetworkDef{Kind: "kary", K: 4},
		trace: func(seed int64, m int) spec.TraceDef {
			return spec.TraceDef{Kind: "temporal", N: 65535, M: m, P: 0.75, Seed: seed}
		},
		shards: 1, clients: 1, requests: 150_000,
	},
	{
		name:    "splay-uniform-k32-s2",
		network: spec.NetworkDef{Kind: "kary", K: 32},
		trace: func(seed int64, m int) spec.TraceDef {
			return spec.TraceDef{Kind: "uniform", N: 65535, M: m, Seed: seed}
		},
		shards: 2, clients: 1, requests: 100_000,
	},
	{
		name: "offline-opt-projector-k4",
		trace: func(seed int64, m int) spec.TraceDef {
			return spec.TraceDef{Kind: "projector", N: 511, M: m, Seed: seed}
		},
		shards: 1, clients: 2, requests: 5_000_000,
	},
	{
		name: "lazy-hotspot-faulted",
		network: spec.NetworkDef{Kind: "uniform-opt", K: 4,
			Policy: &spec.PolicyDef{Trigger: "alpha", Alpha: 20000, Adjuster: "rebuild-wb"}},
		trace: func(seed int64, m int) spec.TraceDef {
			return spec.TraceDef{Kind: "hotspot", N: 4095, M: m, Hot: 0.1, HotOpn: 0.9, Seed: seed}
		},
		shards: 1, clients: 1, requests: 400_000, faults: lazyFaults,
	},
}

// lazyFaults scripts two lossless crashes, one on a checkpoint boundary
// (nothing to replay) and one mid-interval (the log is replayed), and one
// lossy outage that rejects 30 arrivals. With two retries per request
// that is exactly 10 requests, which the stale checkpoint oracle serves
// degraded instead of failing them.
func lazyFaults(m int) *spec.FaultSpec {
	return &spec.FaultSpec{
		CheckpointEvery: checkpointEvery,
		Degraded:        "stale",
		TimeoutMs:       1000,
		Retries:         2,
		Events: []spec.FaultEventSpec{
			{At: int64(m / 5 / checkpointEvery * checkpointEvery), Kind: "crash"},
			{At: int64(m/2 + 777), Kind: "crash"},
			{At: int64(4*m/5 + 123), Kind: "crash", RecoverAfter: 30},
		},
	}
}

func lookupWorkload(name string) (*workloadDef, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// instance is one round's resolved inputs: everything serve.Run needs,
// built before it is called, plus the offline solve's by-products.
type instance struct {
	gen workload.Generator
	mk  func(n int) (sim.Network, error)
	cfg serve.Config

	// Offline workload only.
	demand     *workload.Demand
	tree       *core.Tree
	solverCost int64
	demandS    float64 // demand sample + DemandFromTrace
	optimalS   float64 // NewSolver + Optimal
}

// prepare resolves a round of m requests: the trace, the serve config
// and the network constructor, and for the offline workload the demand
// sample and the optimal tree.
func (w *workloadDef) prepare(seed int64, m int) (*instance, error) {
	gen, err := w.trace(seed, m).Resolve()
	if err != nil {
		return nil, err
	}
	inst := &instance{gen: gen, cfg: spec.ServeDef{Shards: w.shards, Clients: w.clients}.Config()}
	if w.faults != nil {
		inst.cfg.Faults = w.faults(m).Plan()
	}
	if w.network.Kind != "" {
		ns, err := w.network.Spec()
		if err != nil {
			return nil, err
		}
		inst.mk = func(n int) (sim.Network, error) {
			net := ns.Make(n)
			if err := engine.AsFailed(net); err != nil {
				return nil, err
			}
			return net, nil
		}
		return inst, nil
	}

	t0 := time.Now()
	prefix, err := collectPrefix(gen, demandPrefix)
	if err != nil {
		return nil, err
	}
	inst.demand = workload.DemandFromTrace(prefix)
	inst.demandS = time.Since(t0).Seconds()
	t1 := time.Now()
	solver, err := statictree.NewSolver(inst.demand)
	if err != nil {
		return nil, err
	}
	tree, cost, err := solver.Optimal(4)
	if err != nil {
		return nil, err
	}
	inst.optimalS = time.Since(t1).Seconds()
	inst.tree, inst.solverCost = tree, cost
	inst.mk = func(n int) (sim.Network, error) {
		if n != tree.N() {
			return nil, fmt.Errorf("offline tree has %d nodes, shard needs %d", tree.N(), n)
		}
		return policy.New("optimal 4-ary tree", tree, policy.Never(), policy.None())
	}
	return inst, nil
}

// collectPrefix materializes the first m requests of gen.
func collectPrefix(gen workload.Generator, m int) (workload.Trace, error) {
	tr := workload.Trace{Name: gen.Label(), N: gen.Nodes(), Reqs: make([]sim.Request, 0, m)}
	if m == 0 {
		return tr, nil
	}
	for rq, err := range gen.Requests() {
		if err != nil {
			return tr, err
		}
		tr.Reqs = append(tr.Reqs, rq)
		if len(tr.Reqs) == m {
			break
		}
	}
	return tr, nil
}
