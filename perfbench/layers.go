package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"github.com/ksan-net/ksan/internal/engine"
	"github.com/ksan-net/ksan/internal/hist"
	"github.com/ksan-net/ksan/internal/serve"
	"github.com/ksan-net/ksan/internal/sim"
	"github.com/ksan-net/ksan/internal/statictree"
)

// perLayer are the metrics of the traced run, named <layer>.<metric>
// after the repository's modules. README.md says which end-to-end metric
// each should move, and on which workload.
var perLayer = []metricDef{
	{"workload.gen_ns", "ns/req"},
	{"workload.draws_per_req", "draws/req"},
	{"workload.demand_s", "s"},
	{"serve.self_ns", "ns/req"},
	{"serve.route_ns", "ns/call"},
	{"serve.cross_share", "fraction"},
	{"serve.useful_share", "fraction"},
	{"serve.failed_share", "fraction"},
	{"serve.degraded", "count"},
	{"serve.checkpoints", "count"},
	{"serve.replayed", "count"},
	{"serve.rejected", "count"},
	{"serve.retries", "count"},
	{"serve.timeouts", "count"},
	{"policy.serve_ns", "ns/req"},
	{"policy.serve_p99_us", "us"},
	{"policy.fire_share", "fraction"},
	{"policy.fire_us", "us"},
	{"policy.checkpoint_us", "us"},
	{"policy.restore_us", "us"},
	{"policy.rebuilds", "count"},
	{"policy.failed_rebuilds", "count"},
	{"policy.adjust_per_req", "cost/req"},
	{"core.hops_per_serve", "hops/serve"},
	{"core.rotations_per_serve", "rot/serve"},
	{"core.route_ns", "ns/call"},
	{"core.build_s", "s"},
	{"statictree.optimal_s", "s"},
	{"statictree.uniform_opt_s", "s"},
	{"statictree.oracle_build_s", "s"},
	{"statictree.dist_ns", "ns/call"},
	{"hist.observe_ns", "ns/call"},
	{"engine.serve_ns", "ns/req"},
	{"runtime.alloc_bytes_per_req", "B/req"},
	{"runtime.gc_per_mreq", "1/Mreq"},
	{"runtime.sched_wait_p50_us", "us"},
	{"runtime.sched_wait_p99_us", "us"},
	{"ledger.untraced_ns", "ns/req"},
	{"ledger.unexplained_ns", "ns/req"},
	{"trace.overhead", "ratio"},
}

// replayLen bounds the requests the layer replays time.
const replayLen = 1 << 20

// replaySink keeps the replayed calls' results live.
var replaySink int

// runTraced alternates untraced and traced rounds of the same workload
// and seed, then times the public functions serve.Run calls internally
// by replaying the stream through them. It prints the per-request cost
// ledger and writes the last traced round's spans.
func runTraced(w *workloadDef, o options, m int, stdout io.Writer) (*result, error) {
	rs, err := rounds(w, o, m, stdout, func() ([]*round, error) {
		u, err := runRound(w, o.seed, m, nil)
		if err != nil {
			return nil, err
		}
		t, err := runRound(w, o.seed, m, newTracer(w.clients))
		return []*round{u, t}, err
	})
	if rs == nil {
		return nil, err
	}
	var untraced, traced []*round
	for _, r := range rs {
		if r.tr == nil {
			untraced = append(untraced, r)
		} else {
			traced = append(traced, r)
		}
	}
	if len(traced) == 0 {
		return nil, err
	}
	last := traced[len(traced)-1]
	v := map[string]float64{}

	// Layer self times per request, from every traced round.
	var served, serves, busy, hops, adjust, fires, fireNs int64
	var ckpts, ckptNs, restores, restoreNs int64
	var gen genAcc
	var serveHist hist.Hist
	var build, demandS, optimalS, oracleS, traceNs []float64
	for _, r := range traced {
		tr := r.tr
		served += r.served()
		gen.add(&tr.gen)
		var oracle int64
		for _, n := range tr.nets {
			a := &n.acc
			serves += a.serves
			busy += a.busyNs
			hops += a.hops
			adjust += a.adjust
			fires += a.fires
			fireNs += a.fireNs
			ckpts += a.checkpoints
			ckptNs += a.checkpointNs
			restores += a.restores
			restoreNs += a.restoreNs
			oracle += a.oracleBuildNs
			serveHist.Merge(&a.serveHist)
		}
		build = append(build, r.buildS)
		demandS = append(demandS, r.inst.demandS)
		optimalS = append(optimalS, r.inst.optimalS)
		oracleS = append(oracleS, float64(oracle)/1e9)
		traceNs = append(traceNs, r.clientNsPerReq())
	}
	perReq := func(ns float64) float64 { return ns / float64(served) }
	v["workload.gen_ns"] = perReq(float64(gen.genNs))
	v["workload.draws_per_req"] = float64(gen.draws) / float64(served)
	v["workload.demand_s"] = median(demandS)
	v["policy.serve_ns"] = perReq(float64(busy))
	v["serve.self_ns"] = perReq(float64(gen.holdNs)) - v["policy.serve_ns"]
	v["policy.serve_p99_us"] = percentile(&serveHist, 0.99) / 1e3
	v["policy.fire_share"] = ratio(fires, serves)
	v["policy.fire_us"] = ratio(fireNs, fires) / 1e3
	v["policy.checkpoint_us"] = ratio(ckptNs, ckpts) / 1e3
	v["policy.restore_us"] = ratio(restoreNs, restores) / 1e3
	v["core.hops_per_serve"] = ratio(hops, serves)
	v["core.rotations_per_serve"] = ratio(adjust, serves)
	switch w.network.Kind {
	case "kary":
		v["core.build_s"] = median(build)
	case "uniform-opt":
		v["statictree.uniform_opt_s"] = median(build)
	}
	v["statictree.optimal_s"] = median(optimalS)
	v["statictree.oracle_build_s"] = median(oracleS)

	// Run-end counters of the last traced round.
	s := last.stats
	for _, n := range last.tr.nets {
		v["policy.rebuilds"] += float64(n.Rebuilds())
		v["policy.failed_rebuilds"] += float64(n.FailedRebuilds())
	}
	v["policy.adjust_per_req"] = ratio(s.Adjust, s.Requests)
	v["serve.cross_share"] = ratio(s.CrossShard, s.Requests)
	var okHalves int64
	for _, ps := range s.PerShard {
		okHalves += ps.Requests
	}
	v["serve.useful_share"] = 1
	if f := s.Faults; f != nil {
		v["serve.useful_share"] = ratio(okHalves, okHalves+f.Rejected+f.Timeouts)
		v["serve.failed_share"] = ratio(f.FailedRequests, int64(m))
		v["serve.degraded"] = float64(f.DegradedRequests)
		v["serve.checkpoints"] = float64(f.Checkpoints)
		v["serve.replayed"] = float64(f.ReplayedRequests)
		v["serve.rejected"] = float64(f.Rejected)
		v["serve.retries"] = float64(f.Retries)
		v["serve.timeouts"] = float64(f.Timeouts)
	}

	// The runtime as the untraced rounds left it.
	var uServed, allocB, gcs int64
	var sched *metrics.Float64Histogram
	var untracedNs []float64
	for _, r := range untraced {
		uServed += r.served()
		allocB += r.allocB
		gcs += r.gcCycles
		if sched == nil {
			sched = &metrics.Float64Histogram{Buckets: r.schedWait.Buckets, Counts: make([]uint64, len(r.schedWait.Counts))}
		}
		for i, c := range r.schedWait.Counts {
			sched.Counts[i] += c
		}
		untracedNs = append(untracedNs, r.clientNsPerReq())
	}
	v["runtime.alloc_bytes_per_req"] = ratio(allocB, uServed)
	v["runtime.gc_per_mreq"] = ratio(gcs, uServed) * 1e6
	v["runtime.sched_wait_p50_us"] = runtimeQuantile(sched, 0.50) * 1e6
	v["runtime.sched_wait_p99_us"] = runtimeQuantile(sched, 0.99) * 1e6

	eng, rerr := replayLayers(w, last, v)
	if rerr != nil {
		return nil, rerr
	}
	if err == nil && eng != nil && w.faults == nil {
		err = checkEngine(last, *eng)
	}

	// The ledger: per request and client, untraced.
	untracedPerReq := median(untracedNs)
	tracedPerReq := median(traceNs)
	v["ledger.untraced_ns"] = untracedPerReq
	v["ledger.unexplained_ns"] = untracedPerReq - (v["workload.gen_ns"] + v["serve.self_ns"] + v["policy.serve_ns"])
	v["trace.overhead"] = tracedPerReq/untracedPerReq - 1
	printLedger(stdout, w, v, tracedPerReq)

	path, werr := spansPath(w.name)
	if werr == nil {
		werr = writeSpans(path, last.tr.allSpans())
	}
	if werr != nil {
		return nil, fmt.Errorf("writing spans: %w", werr)
	}
	fmt.Fprintf(stdout, "spans of the last traced round: %s\n", path)

	res := &result{Metrics: map[string]metricValue{}}
	for _, r := range rs {
		res.Attempted += int64(m)
		res.Failed += r.failed()
	}
	for _, md := range perLayer {
		res.Metrics[md.name] = metricValue{Value: v[md.name], Unit: md.unit}
	}
	return res, err
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// spansPath is where a traced run writes its spans: the build directory
// the benchmark's script uses.
func spansPath(workload string) (string, error) {
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return filepath.Join(dir, workload+".spans.jsonl"), nil
}

// replayLayers times, per call, the public functions serve.Run reaches
// internally, over the head of the stream: Partition.Route, then on shard
// 0's tree as the last traced round left it Tree.DistanceLCA,
// DistIndex.Dist and Hist.Observe of the costs; and, for one-shard
// workloads, the whole stream through the sequential engine, whose result
// it returns.
func replayLayers(w *workloadDef, last *round, v map[string]float64) (*engine.Result, error) {
	inst := last.inst
	reqs, err := collectPrefix(inst.gen, min(inst.gen.Len(), replayLen))
	if err != nil {
		return nil, err
	}
	part, err := serve.NewPartition(inst.gen.Nodes(), w.shards)
	if err != nil {
		return nil, err
	}
	var rt serve.Route
	var sink int
	v["serve.route_ns"] = timePerCall(len(reqs.Reqs), func() {
		for _, rq := range reqs.Reqs {
			part.Route(rq.Src, rq.Dst, &rt)
			sink += rt.A1
		}
	})

	var local []sim.Request
	for _, rq := range part.Project(reqs.Reqs)[0] {
		if rq.Src != rq.Dst {
			local = append(local, rq)
		}
	}
	tree := last.tr.nets[0].Tree()
	costs := make([]int64, len(local))
	v["core.route_ns"] = timePerCall(len(local), func() {
		for i, rq := range local {
			d, _ := tree.DistanceLCA(tree.NodeByID(rq.Src), tree.NodeByID(rq.Dst))
			costs[i] = int64(d)
		}
	})
	ix := statictree.NewDistIndex(tree)
	v["statictree.dist_ns"] = timePerCall(len(local), func() {
		for _, rq := range local {
			sink += int(ix.Dist(rq.Src, rq.Dst))
		}
	})
	v["hist.observe_ns"] = timePerCall(len(costs), func() {
		var h hist.Hist
		for _, c := range costs {
			h.Observe(c)
		}
		sink += int(h.Count())
	})
	replaySink = sink

	if w.shards > 1 {
		return nil, nil
	}
	res, err := engineReplay(inst)
	if err != nil {
		return nil, err
	}
	v["engine.serve_ns"] = float64(res.Elapsed.Nanoseconds()) / float64(res.Requests)
	return &res, nil
}

// timePerCall runs f, which makes calls calls, five times and returns the
// median nanoseconds per call.
func timePerCall(calls int, f func()) float64 {
	if calls == 0 {
		return 0
	}
	var ns []float64
	for range 5 {
		t0 := time.Now()
		f()
		ns = append(ns, float64(time.Since(t0).Nanoseconds())/float64(calls))
	}
	return median(ns)
}

func printLedger(w io.Writer, wl *workloadDef, v map[string]float64, tracedPerReq float64) {
	fmt.Fprintf(w, "\nper-request cost ledger, %s (ns per request of one client; C=%d, S=%d)\n", wl.name, wl.clients, wl.shards)
	for _, name := range []string{"workload.gen_ns", "serve.self_ns", "policy.serve_ns"} {
		fmt.Fprintf(w, "  %-24s %10.1f\n", name, v[name])
	}
	sum := v["workload.gen_ns"] + v["serve.self_ns"] + v["policy.serve_ns"]
	fmt.Fprintf(w, "  %-24s %10.1f\n", "sum of layers", sum)
	fmt.Fprintf(w, "  %-24s %10.1f\n", "untraced", v["ledger.untraced_ns"])
	fmt.Fprintf(w, "  %-24s %10.1f\n", "ledger.unexplained_ns", v["ledger.unexplained_ns"])
	fmt.Fprintf(w, "  %-24s %10.1f   trace.overhead %.3f\n", "traced", tracedPerReq, v["trace.overhead"])
	if e := v["engine.serve_ns"]; e > 0 {
		fmt.Fprintf(w, "  %-24s %10.1f   untraced - engine = %.1f (the owner hop and client, measured a second way)\n",
			"engine.serve_ns", e, v["ledger.untraced_ns"]-e)
	}
	fmt.Fprintf(w, "  replays: serve.route_ns %.2f  core.route_ns %.2f  statictree.dist_ns %.2f  hist.observe_ns %.2f\n\n",
		v["serve.route_ns"], v["core.route_ns"], v["statictree.dist_ns"], v["hist.observe_ns"])
}
