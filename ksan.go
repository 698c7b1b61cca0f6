// Package ksan is a library of self-adjusting k-ary search tree networks,
// implementing Feder, Paramonov, Mavrin, Salem, Aksenov and Schmid,
// "Toward Self-Adjusting k-ary Search Tree Networks" (IPDPS 2024,
// arXiv:2302.13113), together with every substrate its evaluation needs.
//
// A k-ary search tree network is a reconfigurable datacenter topology: tree
// nodes are network nodes (e.g. top-of-rack switches) with permanent
// identifiers, and each node carries a routing array of k−1 routing
// elements that makes greedy local routing possible even while the
// topology self-adjusts. The package provides:
//
//   - online self-adjusting networks: the k-ary SplayNet (NewKArySplayNet),
//     the centroid-based (k+1)-SplayNet (NewCentroidSplayNet), and the
//     binary SplayNet baseline (NewSplayNet) — each a canonical
//     composition of the policy layer below;
//   - a composable policy layer decoupling routing from adjustment: a
//     PolicyNet pairs a Trigger (when to adjust — TriggerAlways,
//     TriggerNever, TriggerEveryM, TriggerAlpha, TriggerFirst; a
//     PolicyDef's alpha trigger also takes a hysteresis cooldown) with
//     an Adjuster (how — AdjusterSplay, AdjusterSemiSplay,
//     AdjusterRebuild, AdjusterNone) over any tree topology
//     (NewPolicyNet), turning lazy k-ary splay, periodic semi-splay or
//     frozen-after-warmup networks into one-line compositions (also
//     file-addressable via PolicyDef);
//   - offline/static designs: the DP-optimal routing-based tree
//     (OptimalStaticTree, with NewOptimalSolver sharing one demand's
//     precomputation across an arity sweep), the uniform-workload optimum
//     (OptimalUniformTree), the O(n) centroid tree (CentroidTree), the
//     full tree baseline (FullTree) and a weight-balanced approximation
//     for very large instances (WeightBalancedTree);
//   - workload generators mirroring the paper's evaluation traces, demand
//     matrices, trace statistics and CSV I/O;
//   - a streaming simulation engine with the paper's cost model: the
//     classic aggregate entry points (Run, RunAll) plus an Engine with
//     cancellation, warmup windows, cost time-series, routing percentiles
//     and deterministic parallel grid execution (NewEngine, RunGrid) that
//     can also deliver cells as they finish (Stream);
//   - a declarative, serializable experiment layer: NetworkDef and
//     TraceDef name registered kinds plus parameters, compose into an
//     Experiment document with JSON encode/decode, and resolve to the
//     engine's grid inputs — experiments are data, written to files,
//     diffed and re-run (RegisterNetwork and RegisterTrace open the
//     taxonomy to new designs and workloads).
//
// The cmd/ksanbench binary regenerates every table and figure of the
// paper's evaluation, and runs arbitrary user grids from experiment files
// (-experiment, -format); see DESIGN.md and EXPERIMENTS.md.
package ksan

import (
	"context"
	"io"
	"iter"

	"github.com/ksan-net/ksan/internal/centroidnet"
	"github.com/ksan-net/ksan/internal/core"
	"github.com/ksan-net/ksan/internal/engine"
	"github.com/ksan-net/ksan/internal/policy"
	"github.com/ksan-net/ksan/internal/sim"
	"github.com/ksan-net/ksan/internal/spec"
	"github.com/ksan-net/ksan/internal/splaynet"
	"github.com/ksan-net/ksan/internal/statictree"
	"github.com/ksan-net/ksan/internal/workload"
)

// Request is a single communication request between two node ids (1..n).
type Request = sim.Request

// Cost is the price of serving one request: routing (path length in the
// topology before adjustment) plus adjustment (one unit per elementary
// rotation).
type Cost = sim.Cost

// Result aggregates the cost of a trace on one network.
type Result = sim.Result

// Network is a (possibly self-adjusting) topology serving requests.
type Network = sim.Network

// Trace is a finite communication sequence over nodes 1..N (the fully
// materialized form of a Generator, and itself the trivial Generator).
type Trace = workload.Trace

// Generator is a deterministic, resettable request stream: the streaming
// form of a workload that the engine, grids, and experiment files iterate
// without materializing a request slice, so trace length is never
// memory-bound. Every Requests() call is an independent, identical pass.
type Generator = workload.Generator

// Phase is one segment of a phased (drifting) workload: M requests drawn
// from the front of Gen's stream.
type Phase = workload.Phase

// Demand is a sparse demand matrix (the offline problem input).
type Demand = workload.Demand

// Stats summarizes a trace's locality, skew and sparsity.
type Stats = workload.Stats

// Tree is a k-ary search tree network topology.
type Tree = core.Tree

// Node is a single network node of a Tree.
type Node = core.Node

// KArySplayNet is the paper's online k-ary SplayNet (Section 4.1).
type KArySplayNet = policy.Net

// CentroidSplayNet is the paper's online (k+1)-SplayNet (Section 4.2).
type CentroidSplayNet = centroidnet.Net

// SplayNet is the binary SplayNet baseline of Schmid et al.
type SplayNet = splaynet.Net

// LazyNet is the partially reactive meta-algorithm: the topology stays
// static until the routing cost since the last reconfiguration crosses a
// threshold, then a demand-aware topology is recomputed from the observed
// traffic (the lazy SAN regime the paper's introduction describes).
type LazyNet = policy.Net

// StaticNet wraps a static topology as a Network (routing cost only).
type StaticNet = policy.Net

// PolicyNet is a trigger × adjuster composition over a tree topology —
// the decomposition every self-adjusting network in this library
// factors through: route the request on the current tree, let the
// Trigger decide *when* to restructure and the Adjuster decide *how*.
// KArySplayNet and LazyNet are canonical compositions of this type;
// NewPolicyNet builds any other point of the plane (lazy k-ary splay,
// periodic semi-splay, frozen-after-warmup, ...). Frozen compositions
// (TriggerNever) route through a constant-time distance oracle once a
// static stretch has paid for building it, like static networks.
type PolicyNet = policy.Net

// PolicyTrigger decides when a PolicyNet adjusts; see TriggerAlways,
// TriggerNever, TriggerEveryM, TriggerAlpha and TriggerFirst. Triggers are stateful: compose a fresh instance per
// network.
type PolicyTrigger = policy.Trigger

// PolicyAdjuster decides how a PolicyNet restructures; see
// AdjusterSplay, AdjusterSemiSplay, AdjusterRebuild and AdjusterNone.
type PolicyAdjuster = policy.Adjuster

// RebuildBuilder computes a static demand-aware topology for a demand
// window; WeightBalancedTree and OptimalStaticTree (via their
// statictree implementations) are the stock builders for
// AdjusterRebuild.
type RebuildBuilder = policy.Builder

// NewPolicyNet composes a policy network over an arbitrary valid tree
// topology. The tree is owned by the network from then on and must only
// be mutated through Serve.
func NewPolicyNet(name string, t *Tree, trig PolicyTrigger, adj PolicyAdjuster) (*PolicyNet, error) {
	return policy.New(name, t, trig, adj)
}

// TriggerAlways fires on every request (the fully reactive regime).
func TriggerAlways() PolicyTrigger { return policy.Always() }

// TriggerNever never fires: the composition is frozen/static.
func TriggerNever() PolicyTrigger { return policy.Never() }

// TriggerEveryM fires on every m-th served request since the last
// adjustment (m >= 1; self-loop requests are free and not counted).
func TriggerEveryM(m int64) PolicyTrigger { return policy.EveryM(m) }

// TriggerAlpha fires once the routing cost accumulated since the last
// adjustment reaches alpha (the lazy/partially-reactive regime).
func TriggerAlpha(alpha int64) PolicyTrigger { return policy.Alpha(alpha) }

// TriggerFirst fires on each of the first m served requests and never
// again (frozen-after-warmup).
func TriggerFirst(m int64) PolicyTrigger { return policy.First(m) }

// AdjusterSplay is the full k-splay adjustment of the paper's online
// networks.
func AdjusterSplay() PolicyAdjuster { return policy.Splay() }

// AdjusterSemiSplay restricts the repertoire to single k-semi-splay
// steps (the rotation-repertoire ablation).
func AdjusterSemiSplay() PolicyAdjuster { return policy.SemiSplay() }

// AdjusterNone never restructures (compose with TriggerNever for a
// frozen topology).
func AdjusterNone() PolicyAdjuster { return policy.None() }

// AdjusterRebuild recomputes the topology from the demand observed
// since the last adjustment and swaps it in, charging the link churn of
// the swap; name labels the builder in composition reports.
func AdjusterRebuild(name string, b RebuildBuilder) PolicyAdjuster {
	return policy.Rebuild(name, b)
}

// NewKArySplayNet constructs a k-ary SplayNet on n nodes with a balanced
// initial topology.
func NewKArySplayNet(n, k int) (*KArySplayNet, error) { return policy.NewKArySplayNet(n, k) }

// NewKArySplayNetFromTree wraps an arbitrary valid initial topology.
func NewKArySplayNetFromTree(t *Tree) *KArySplayNet {
	return mustCompose(policy.New(policy.KArySplayNetName(t.K()), t, policy.Always(), policy.Splay()))
}

// NewCentroidSplayNet constructs a (k+1)-SplayNet on n nodes (n ≥ 3).
func NewCentroidSplayNet(n, k int) (*CentroidSplayNet, error) { return centroidnet.New(n, k) }

// NewSplayNet constructs the binary SplayNet baseline on n nodes.
func NewSplayNet(n int) (*SplayNet, error) { return splaynet.New(n) }

// NewLazyNet constructs a partially reactive k-ary network that rebuilds a
// demand-aware topology whenever the routing cost since the last rebuild
// reaches alpha.
func NewLazyNet(n, k int, alpha int64) (*LazyNet, error) { return policy.NewLazy(n, k, alpha) }

// NewStaticNet wraps a static tree topology as a Network.
func NewStaticNet(name string, t *Tree) *StaticNet {
	return mustCompose(policy.New(name, t, policy.Never(), policy.None()))
}

// mustCompose unwraps a composition over a given tree, whose only error
// is a nil tree.
func mustCompose(net *policy.Net, err error) *policy.Net {
	if err != nil {
		panic(err)
	}
	return net
}

// NewBalancedTree builds the weakly-complete k-ary search tree on n nodes.
func NewBalancedTree(n, k int) (*Tree, error) { return core.NewBalanced(n, k) }

// NewPathTree builds the degenerate path topology (worst-case start).
func NewPathTree(n, k int) (*Tree, error) { return core.NewPath(n, k) }

// OptimalStaticTree computes the optimal static routing-based k-ary search
// tree for a demand (Theorem 2; O(n³·k) time) and its total distance. It
// is a one-shot wrapper over OptimalSolver; sweep arities through one
// NewOptimalSolver to share the per-demand precomputation.
func OptimalStaticTree(d *Demand, k int) (*Tree, int64, error) { return statictree.Optimal(d, k) }

// OptimalSolver answers OptimalStaticTree queries for one demand at any
// arity, building the O(n²) boundary-traffic matrix once and recycling the
// DP tables across calls. It owns its scratch: serialize Optimal calls
// (the DP fill itself is parallel) or build one solver per goroutine.
type OptimalSolver = statictree.Solver

// NewOptimalSolver builds a reusable solver for the demand's optimal
// static trees (see OptimalSolver). Its DP fill runs on up to GOMAXPROCS
// workers.
func NewOptimalSolver(d *Demand) (*OptimalSolver, error) { return statictree.NewSolver(d) }

// OptimalUniformTree computes the optimal static k-ary search tree for the
// uniform workload (Theorem 4) and its total distance in O(n²·log k)
// time, tighter than the theorem's O(n²·k): a forest's cost does not
// depend on the order of its trees, so some best forest of t trees on L
// nodes starts with its smallest tree, of at most ⌊L/t⌋ nodes, and the
// DP searches only those first-tree sizes. It is a one-shot wrapper over
// statictree's UniformSolver; the Remark 10 grid reuses one solver per
// node count.
func OptimalUniformTree(n, k int) (*Tree, int64, error) { return statictree.OptimalUniform(n, k) }

// CentroidTree builds the centroid k-ary search tree in O(n) (Theorem 8);
// it matches the uniform optimum on every instance we tested (Remark 10).
func CentroidTree(n, k int) (*Tree, error) { return statictree.Centroid(n, k) }

// FullTree builds the weakly-complete k-ary tree baseline.
func FullTree(n, k int) (*Tree, error) { return statictree.Full(n, k) }

// WeightBalancedTree builds a demand-aware k-ary tree by Mehlhorn-style
// weighted bisection — an approximation for instances beyond the cubic
// DP's reach (see the package documentation for its guarantees).
func WeightBalancedTree(d *Demand, k int) (*Tree, int64, error) {
	return statictree.WeightBalanced(d, k)
}

// TotalDistance evaluates Σ d_T(u,v)·D[u,v] for a static topology.
func TotalDistance(t *Tree, d *Demand) int64 { return statictree.TotalDistance(t, d) }

// TotalDistanceUniform evaluates Σ_{u<v} d_T(u,v) in O(n).
func TotalDistanceUniform(t *Tree) int64 { return statictree.TotalDistanceUniform(t) }

// UniformWorkload draws m uniform requests over n nodes.
func UniformWorkload(n, m int, seed int64) Trace { return workload.Uniform(n, m, seed) }

// TemporalWorkload draws m requests repeating the previous one with
// probability p (the paper's synthetic workloads, Tables 4–7).
func TemporalWorkload(n, m int, p float64, seed int64) Trace {
	return workload.Temporal(n, m, p, seed)
}

// HPCWorkload generates the stencil/collective trace substituting for the
// paper's DOE HPC dataset.
func HPCWorkload(n, m int, seed int64) Trace { return workload.HPCLike(n, m, seed) }

// ProjecToRWorkload generates the sparse skewed trace substituting for the
// paper's ProjecToR dataset.
func ProjecToRWorkload(n, m int, seed int64) Trace { return workload.ProjecToRLike(n, m, seed) }

// FacebookWorkload generates the wide heavy-tailed trace substituting for
// the paper's Facebook dataset.
func FacebookWorkload(n, m int, seed int64) Trace { return workload.FacebookLike(n, m, seed) }

// ZipfWorkload draws skewed endpoints with exponent s.
func ZipfWorkload(n, m int, s float64, seed int64) Trace { return workload.Zipf(n, m, s, seed) }

// UniformGen, TemporalGen, HPCGen, ProjectorGen, FacebookGen and ZipfGen
// are the streaming forms of the trace constructors above: same seed,
// bit-identical stream, no materialized slice.
func UniformGen(n, m int, seed int64) Generator { return workload.UniformGen(n, m, seed) }

// TemporalGen streams the paper's synthetic temporal-locality workload.
func TemporalGen(n, m int, p float64, seed int64) Generator {
	return workload.TemporalGen(n, m, p, seed)
}

// HPCGen streams the HPC-substitute workload.
func HPCGen(n, m int, seed int64) Generator { return workload.HPCGen(n, m, seed) }

// ProjectorGen streams the ProjecToR-substitute workload.
func ProjectorGen(n, m int, seed int64) Generator { return workload.ProjectorGen(n, m, seed) }

// FacebookGen streams the Facebook-substitute workload.
func FacebookGen(n, m int, seed int64) Generator { return workload.FacebookGen(n, m, seed) }

// ZipfGen streams the Zipf workload. Like HotspotGen, ExponentialGen and
// LatestGen, it redraws self-loops, so it panics when its parameters leave
// less than 2^-20 of an endpoint draw outside one node.
func ZipfGen(n, m int, s float64, seed int64) Generator { return workload.ZipfGen(n, m, s, seed) }

// HotspotGen streams the YCSB hotspot workload: a hotFrac fraction of the
// nodes receives a hotOpn fraction of the endpoint draws.
func HotspotGen(n, m int, hotFrac, hotOpn float64, seed int64) Generator {
	return workload.HotspotGen(n, m, hotFrac, hotOpn, seed)
}

// ExponentialGen streams endpoints decaying exponentially over permuted
// ranks (rate s over the whole node space).
func ExponentialGen(n, m int, s float64, seed int64) Generator {
	return workload.ExponentialGen(n, m, s, seed)
}

// LatestGen streams recency-driven endpoints (Zipf(s) stack distance over
// a move-to-front list): temporal locality over nodes with a drifting hot
// set.
func LatestGen(n, m int, s float64, seed int64) Generator {
	return workload.LatestGen(n, m, s, seed)
}

// SequentialGen streams the deterministic lexicographic sweep over all
// ordered pairs (seedless; the uniform worst case for demand-awareness).
func SequentialGen(n, m int) Generator { return workload.SequentialGen(n, m) }

// HistogramGen streams endpoints following an explicit node-popularity
// histogram (weights[i] is node i+1's relative popularity). It returns an
// error on fewer than two weights, a bad weight or total, or weights that
// leave less than 2^-20 of the total outside one node.
func HistogramGen(n, m int, weights []float64, seed int64) (Generator, error) {
	return workload.HistogramGen(n, m, weights, seed)
}

// PhasedGen chains (generator, duration) phases into one drifting stream:
// flash crowds, diurnal skew rotation and hot-set drift as data.
func PhasedGen(label string, phases []Phase) (Generator, error) {
	return workload.PhasedGen(label, phases)
}

// DemandFromTrace aggregates a trace into its demand matrix.
func DemandFromTrace(tr Trace) *Demand { return workload.DemandFromTrace(tr) }

// UniformDemand is the finite uniform workload (every pair once).
func UniformDemand(n int) *Demand { return workload.UniformDemand(n) }

// MeasureTrace computes locality/skew/sparsity statistics of a trace.
func MeasureTrace(tr Trace) Stats { return workload.Measure(tr) }

// EntropyBound evaluates the Theorem 13 cost bound for a trace.
func EntropyBound(tr Trace) float64 { return workload.EntropyBound(tr) }

// WriteTraceCSV serializes a trace (see cmd/ksantrace).
func WriteTraceCSV(w io.Writer, tr Trace) error { return workload.WriteCSV(w, tr) }

// ReadTraceCSV parses a trace written by WriteTraceCSV, materializing it.
func ReadTraceCSV(r io.Reader) (Trace, error) { return workload.ReadCSV(r) }

// MeasureStream computes trace statistics from a generator's stream in
// one pass, in memory proportional to the demand (distinct pairs), not
// the trace length.
func MeasureStream(g Generator) (Stats, error) { return workload.MeasureStream(g) }

// EntropyBoundStream evaluates the Theorem 13 cost bound from a
// generator's stream in one pass.
func EntropyBoundStream(g Generator) (float64, error) { return workload.EntropyBoundStream(g) }

// Engine is the streaming simulation engine: context cancellation,
// warmup/measurement windows, per-window cost time-series, routing
// percentiles, progress callbacks, and deterministic parallel grid
// execution. Construct with NewEngine.
type Engine = engine.Engine

// EngineOption configures an Engine (see WithWorkers, WithWarmup,
// WithWindow, WithProgress, WithLinkChurn).
type EngineOption = engine.Option

// EngineResult is the extended per-run result of the streaming engine; it
// embeds the classic Result and adds percentiles, warmup accounting,
// link churn, throughput and the per-window cost time-series.
type EngineResult = engine.Result

// WindowSample is one point of a run's per-window cost time-series.
type WindowSample = engine.WindowSample

// EngineProgress is a progress-callback event of the streaming engine.
type EngineProgress = engine.Progress

// NetworkSpec declares one network design of a declarative grid.
type NetworkSpec = engine.NetworkSpec

// TraceSpec declares one trace of a declarative grid.
type TraceSpec = engine.TraceSpec

// NewEngine constructs a streaming simulation engine.
func NewEngine(opts ...EngineOption) *Engine { return engine.New(opts...) }

// WithWorkers bounds the engine's worker pool (default GOMAXPROCS).
func WithWorkers(n int) EngineOption { return engine.WithWorkers(n) }

// WithWarmup excludes the first n requests of each trace from measurement.
func WithWarmup(n int) EngineOption { return engine.WithWarmup(n) }

// WithWindow samples a cost time-series point every w measured requests.
func WithWindow(w int) EngineOption { return engine.WithWindow(w) }

// WithProgress installs a progress callback (calls are serialized).
func WithProgress(fn func(EngineProgress)) EngineOption { return engine.WithProgress(fn) }

// WithLinkChurn enables physical link-churn accounting where available.
func WithLinkChurn(on bool) EngineOption { return engine.WithLinkChurn(on) }

// TraceSpecOf adapts a workload Trace to a grid TraceSpec.
func TraceSpecOf(tr Trace) TraceSpec {
	return TraceSpec{Name: tr.Name, N: tr.N, Reqs: tr.Reqs}
}

// TraceSpecFor adapts a streaming Generator to a grid TraceSpec: every
// cell serving it takes its own independent pass over the shared stream.
func TraceSpecFor(g Generator) TraceSpec { return engine.TraceSpecFor(g) }

// NetworkDef declares one network design by registered kind — the
// serializable counterpart of NetworkSpec. Builtin kinds: kary, centroid,
// splaynet, lazy, full, centroid-tree, uniform-opt; see the field docs on
// the underlying type for the parameters each reads.
type NetworkDef = spec.NetworkDef

// PolicyDef selects a trigger × adjuster composition for a NetworkDef's
// topology, making the policy plane file-addressable (triggers: always,
// never, every, first, alpha; adjusters: splay, semi-splay, rebuild-wb,
// rebuild-opt, none — availability depends on the kind).
type PolicyDef = spec.PolicyDef

// TraceDef declares one workload trace by registered kind — the
// serializable counterpart of TraceSpec. Builtin kinds: uniform, temporal,
// hpc, projector, facebook, zipf, hotspot, exponential, latest,
// sequential, histogram, csv, and phased (a list of sub-trace defs chained
// into one drifting stream).
type TraceDef = spec.TraceDef

// EngineDef is the serializable subset of the engine options (workers,
// warmup, window, link churn); zero values mean engine defaults.
type EngineDef = spec.EngineDef

// Experiment is a complete, JSON-round-trippable grid description:
// Networks × Traces evaluated under Engine options. Encode writes the
// canonical document; DecodeExperiment parses and validates one; Resolve
// turns it into RunGrid/Stream inputs, constructing each trace's
// streaming generator exactly once however many grid cells share it (each
// cell takes its own pass; no trace is materialized).
type Experiment = spec.Experiment

// Cell is one finished cell of a streamed grid (see Stream).
type Cell = engine.Cell

// RegisterNetwork adds a network kind to the experiment taxonomy, making
// custom designs addressable from experiment files. It panics on a
// duplicate kind (registration is an init-time affair, like sql.Register).
func RegisterNetwork(kind string, build func(NetworkDef) (NetworkSpec, error)) {
	spec.RegisterNetwork(kind, build)
}

// RegisterTrace adds a trace kind to the experiment taxonomy. The builder
// resolves a def to its streaming Generator and is called exactly once
// per experiment resolution — the generator is the shared factory whose
// passes the grid cells stream, so it must be deterministic (every pass
// identical). It panics on a duplicate kind.
func RegisterTrace(kind string, build func(TraceDef) (Generator, error)) {
	spec.RegisterTrace(kind, build)
}

// NetworkKinds returns the registered network kinds, sorted.
func NetworkKinds() []string { return spec.NetworkKinds() }

// TraceKinds returns the registered trace kinds, sorted.
func TraceKinds() []string { return spec.TraceKinds() }

// DecodeExperiment parses and validates a JSON experiment document (the
// format Encode writes; unknown fields are rejected).
func DecodeExperiment(r io.Reader) (*Experiment, error) { return spec.Decode(r) }

// Stream evaluates the cross product of networks × traces on a bounded
// worker pool and yields each cell as it finishes, in completion order,
// together with that cell's error (nil, a construction/validation
// failure, or ctx.Err() alongside the partial result). Cell results are
// deterministic across worker counts; only completion order is not.
// Breaking out of the loop stops the evaluation.
//
// On cancellation, cells that were never dispatched are not yielded at
// all: a stream that ends cleanly has covered the whole grid only if ctx
// is still alive, so — like bufio.Scanner.Err — check ctx.Err() after the
// loop (RunGrid does exactly that).
func Stream(ctx context.Context, networks []NetworkSpec, traces []TraceSpec, opts ...EngineOption) iter.Seq2[Cell, error] {
	return engine.New(opts...).Stream(ctx, networks, traces)
}

// FailedNetwork lets a custom NetworkSpec.Make (or a RegisterNetwork
// builder's Make) report a construction error despite Make's error-free
// signature: return FailedNetwork(err) and the grid yields err as that
// cell's error instead of a generic nil-network message.
func FailedNetwork(err error) Network { return engine.FailedNetwork(err) }

// RunGrid evaluates the cross product of networks × traces on a bounded
// worker pool, deterministically: out[i][j] is networks[i] on traces[j].
func RunGrid(ctx context.Context, networks []NetworkSpec, traces []TraceSpec, opts ...EngineOption) ([][]EngineResult, error) {
	return engine.New(opts...).RunGrid(ctx, networks, traces)
}

// Run serves a request sequence on a network and aggregates its cost. It
// is the historical entry point, now a thin wrapper over the streaming
// engine; results are bit-identical to the seed loop. Run panics with a
// descriptive error if the trace references endpoints outside 1..net.N()
// (the engine's Run returns the error instead — the documented trade for
// keeping this signature).
func Run(net Network, reqs []Request) Result {
	res, err := engine.New().Run(context.Background(), net, reqs)
	if err != nil {
		panic(err)
	}
	return res.Result
}

// RunAll serves the same requests on independently constructed networks
// concurrently and returns results in input order. Like Run it is a thin
// wrapper over the streaming engine's grid runner and panics on invalid
// traces.
func RunAll(makers []func() Network, reqs []Request) []Result {
	nets := make([]NetworkSpec, len(makers))
	for i, mk := range makers {
		mk := mk
		nets[i] = NetworkSpec{Make: func(int) sim.Network { return mk() }}
	}
	grid, err := engine.New().RunGrid(context.Background(), nets, []TraceSpec{{Reqs: reqs}})
	if err != nil {
		panic(err)
	}
	out := make([]Result, len(makers))
	for i := range grid {
		out[i] = grid[i][0].Result
	}
	return out
}
