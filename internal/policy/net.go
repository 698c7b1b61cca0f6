package policy

import (
	"fmt"
	"sync"

	"github.com/ksan-net/ksan/internal/core"
	"github.com/ksan-net/ksan/internal/sim"
	"github.com/ksan-net/ksan/internal/statictree"
	"github.com/ksan-net/ksan/internal/workload"
)

// windowCompactLen bounds the raw request window a net retains between
// adjustments: once the window reaches this length it is aggregated into
// the running demand (demand aggregation is associative, so chunk-wise
// compaction is bit-identical to retaining every request) and recycled
// in place. This caps window memory at O(windowCompactLen + distinct
// pairs) however rare rebuilds are, where keeping every raw request
// since the last rebuild would grow without bound under a large α.
const windowCompactLen = 1 << 15

// Net is a trigger × adjuster composition over a routed topology. It
// implements sim.Network and the engine's ChurnReporter.
//
// Serve is not safe for concurrent use (see the package comment); the
// oracle a frozen net's StaticOracle returns is. A frozen net (Never ×
// None) is the static network of a tree.
type Net struct {
	name string
	trig Trigger
	adj  Adjuster

	t   *core.Tree // tree substrate (nil when top is set)
	top Topology   // custom substrate

	// spare is the tree the last ReplaceTree retired, kept as an arena
	// the next rebuild can build into (RebuildWeightBalanced); never the
	// current tree, nil before the first swap.
	spare *core.Tree

	needsWindow  bool
	window       []sim.Request
	compactAfter int              // window length that forces compaction
	pending      *workload.Demand // compacted aggregate of overflowed window chunks

	rebuilds       int64
	failedRebuilds int64
	lastFailure    error
	churn          int64 // cumulative link churn of tree swaps
	retiredEdges   int64 // EdgeChanges carried over from swapped-out trees
	trackEdges     bool

	// Static-stretch fast path: after oracleAfter consecutive declined
	// requests the tree is provably unchanged for a while, so distance
	// queries go through the O(1) Euler-tour/RMQ oracle instead of
	// pointer walks. Any adjustment invalidates it (oracleLive drops to
	// false), but the oracle object itself is retained: the next stretch
	// re-indexes it in place (DistIndex.Rebuild), so entering a static
	// stretch allocates nothing after the first one.
	streak      int
	oracleAfter int
	oracle      *statictree.DistIndex
	oracleLive  bool
	oracleOnce  sync.Once

	ctx Ctx
}

// New composes a policy net over a core.Tree substrate. The tree is
// owned by the net from here on: it must only be mutated through Serve
// (adjusters), or the static-stretch oracle would go stale.
func New(name string, t *core.Tree, trig Trigger, adj Adjuster) (*Net, error) {
	if t == nil {
		return nil, fmt.Errorf("policy: nil tree")
	}
	return compose(name, t, nil, trig, adj)
}

// NewCustom composes a policy net over a custom substrate (e.g. the
// binary splaynet). Adjusters that need a core.Tree are rejected.
func NewCustom(name string, top Topology, trig Trigger, adj Adjuster) (*Net, error) {
	if top == nil {
		return nil, fmt.Errorf("policy: nil topology")
	}
	if adj != nil && adj.NeedsTree() {
		return nil, fmt.Errorf("policy: adjuster %q requires a core.Tree-backed substrate", adj.Name())
	}
	return compose(name, nil, top, trig, adj)
}

// NewBalanced composes trig × adj over the weakly-complete balanced k-ary
// tree on n nodes, the default starting topology of the experiments and
// the plane the trigger × adjuster ablations sweep.
func NewBalanced(label string, n, k int, trig Trigger, adj Adjuster) (*Net, error) {
	t, err := core.NewBalanced(n, k)
	if err != nil {
		return nil, fmt.Errorf("policy: %w", err)
	}
	return New(label, t, trig, adj)
}

// KArySplayNetName is the report name of the k-ary SplayNet of arity k,
// whatever its initial topology.
func KArySplayNetName(k int) string { return fmt.Sprintf("%d-ary SplayNet", k) }

// NewKArySplayNet constructs the k-ary SplayNet of Section 4.1 of the
// paper on nodes 1..n: a request (u,v) is routed along the tree path,
// then u moves to the position of the lowest common ancestor and v to a
// child of u by the identifier-preserving k-splay and k-semi-splay
// rotations of internal/core, so a repeated request costs one hop. It
// is the composition balanced k-ary tree × (Always, Splay); start it
// from another topology with New, Always, Splay and KArySplayNetName.
func NewKArySplayNet(n, k int) (*Net, error) {
	return NewBalanced(KArySplayNetName(k), n, k, Always(), Splay())
}

// LazyName is the report name of the lazy k-ary net with threshold
// alpha.
func LazyName(k int, alpha int64) string { return fmt.Sprintf("lazy %d-ary net (α=%d)", k, alpha) }

// NewLazy constructs the partially reactive net the paper's introduction
// describes (after Feder et al.'s lazy self-adjusting networks): the
// topology stays static until the routing cost accumulated since the
// last reconfiguration reaches alpha, then a weight-balanced topology is
// rebuilt from the traffic observed meanwhile and swapped in, charging
// the links added plus removed. It is the composition balanced k-ary
// tree × (Alpha(alpha), RebuildWeightBalanced); other builders,
// hysteresis or periodic rebuilds are other compositions over the same
// substrate.
func NewLazy(n, k int, alpha int64) (*Net, error) {
	if alpha <= 0 {
		return nil, fmt.Errorf("policy: lazy threshold must be positive, got %d", alpha)
	}
	return NewBalanced(LazyName(k, alpha), n, k, Alpha(alpha), RebuildWeightBalanced("weight-balanced"))
}

func compose(name string, t *core.Tree, top Topology, trig Trigger, adj Adjuster) (*Net, error) {
	if trig == nil || adj == nil {
		return nil, fmt.Errorf("policy: composition needs both a trigger and an adjuster")
	}
	p := &Net{
		name:         name,
		trig:         trig,
		adj:          adj,
		t:            t,
		top:          top,
		needsWindow:  adj.NeedsWindow(),
		compactAfter: windowCompactLen,
	}
	if t != nil {
		// The oracle build is O(n log n); 2n declined requests comfortably
		// amortize it on every tree size we serve (see DESIGN.md §8).
		p.oracleAfter = 2*t.N() + 64
	}
	p.ctx.net = p
	return p, nil
}

// Name implements sim.Network.
func (p *Net) Name() string { return p.name }

// N implements sim.Network.
func (p *Net) N() int {
	if p.t != nil {
		return p.t.N()
	}
	return p.top.N()
}

// K returns the arity bound of the tree substrate, or 0 for custom
// substrates.
func (p *Net) K() int {
	if p.t != nil {
		return p.t.K()
	}
	return 0
}

// Tree exposes the current tree substrate for inspection and
// validation (nil for custom substrates). Mutating it directly voids
// the static-stretch oracle's soundness. Serving may change it (splay
// adjusters rotate it in place); a rebuild swaps in another tree and
// keeps this one as the spare arena the next rebuild may build into, so
// a returned tree stays unchanged until the second rebuild attempt after
// it was returned. Copy it (Snapshot) to keep it longer.
func (p *Net) Tree() *core.Tree { return p.t }

// Trigger returns the composed trigger.
func (p *Net) Trigger() Trigger { return p.trig }

// Adjuster returns the composed adjuster.
func (p *Net) Adjuster() Adjuster { return p.adj }

// Rebuilds returns how many topology swaps (successful rebuilds) have
// happened.
func (p *Net) Rebuilds() int64 { return p.rebuilds }

// FailedRebuilds returns how many adjustments failed (builder errors);
// each left the topology unchanged and charged nothing.
func (p *Net) FailedRebuilds() int64 { return p.failedRebuilds }

// LastFailure returns the most recent adjustment failure, or nil.
func (p *Net) LastFailure() error { return p.lastFailure }

// LinkChurn implements the engine's ChurnReporter with the unified
// accounting of the policy layer: the link churn of topology swaps plus
// the per-rotation edge changes of every tree the net has owned (the
// latter only accumulate while edge tracking is on).
func (p *Net) LinkChurn() int64 {
	total := p.churn + p.retiredEdges
	if p.t != nil {
		total += p.t.EdgeChanges()
	}
	return total
}

// SetTrackEdges toggles per-rotation edge-churn accounting on the tree
// substrate, surviving rebuild swaps (each fresh tree inherits the
// setting). No-op on custom substrates.
func (p *Net) SetTrackEdges(on bool) {
	p.trackEdges = on
	if p.t != nil {
		p.t.SetTrackEdges(on)
	}
}

// Serve implements sim.Network: route the request on the current
// topology, feed the trigger, and adjust when it fires. Self-loop
// requests are free and invisible to the policy.
func (p *Net) Serve(u, v int) sim.Cost {
	if u == v {
		return sim.Cost{}
	}
	ctx := &p.ctx
	ctx.U, ctx.V = u, v
	ctx.Tree, ctx.A, ctx.B, ctx.W = p.t, nil, nil, nil
	var dist int64
	switch {
	case p.t == nil:
		dist = p.top.Route(u, v, ctx)
	case p.oracleLive:
		dist = p.oracle.Dist(u, v)
	default:
		a, b := p.t.NodeByID(u), p.t.NodeByID(v)
		d, w := p.t.DistanceLCA(a, b)
		dist = int64(d)
		ctx.A, ctx.B, ctx.W = a, b, w
	}
	ctx.Dist = dist
	if p.needsWindow {
		p.window = append(p.window, sim.Request{Src: u, Dst: v})
	}
	cost := sim.Cost{Routing: dist}
	if !p.trig.Observe(dist) {
		if p.needsWindow && len(p.window) >= p.compactAfter {
			p.compactWindow()
		}
		p.streak++
		if p.t != nil && !p.oracleLive && p.streak >= p.oracleAfter {
			if p.oracle == nil {
				p.oracle = new(statictree.DistIndex)
			}
			p.oracle.Rebuild(p.t)
			p.oracleLive = true
		}
		return cost
	}
	if p.t != nil && ctx.A == nil {
		// The oracle route skipped the splay context; materialize it for
		// the adjuster (once per static stretch, so the double walk is
		// noise).
		a, b := p.t.NodeByID(u), p.t.NodeByID(v)
		_, w := p.t.DistanceLCA(a, b)
		ctx.A, ctx.B, ctx.W = a, b, w
	}
	ctx.Window = p.window
	cost.Adjust = p.adj.Adjust(ctx)
	ctx.Window = nil
	p.afterAdjust()
	return cost
}

// compactWindow folds the raw window into the running demand aggregate
// and recycles the window in place, bounding window memory between
// adjustments (see windowCompactLen).
func (p *Net) compactWindow() {
	chunk := workload.DemandFromTrace(workload.Trace{N: p.N(), Reqs: p.window})
	if p.pending == nil {
		p.pending = chunk
	} else {
		p.pending.Merge(chunk)
	}
	p.window = p.window[:0]
}

// afterAdjust starts a fresh measurement stretch: trigger state, request
// window and its compacted aggregate, and the static-stretch oracle all
// reset. The oracle object is kept for in-place reuse, only its liveness
// drops.
func (p *Net) afterAdjust() {
	p.trig.Reset()
	p.streak = 0
	p.oracleLive = false
	if p.needsWindow {
		p.window = p.window[:0]
		p.pending = nil
	}
}

// frozen reports whether the topology can never change: a Never trigger
// on a tree substrate.
func (p *Net) frozen() bool {
	_, never := p.trig.(neverTrigger)
	return never && p.t != nil
}

// StaticOracle is the shard-safe serving hook (internal/serve): for a
// frozen composition it returns the distance oracle over the — provably
// permanent — current topology, building it on first use. The oracle is
// immutable from then on, so any number of goroutines may query it
// concurrently without touching the net itself; callers must not mix
// that with Serve calls from other goroutines (Serve mutates streak and
// oracle state even when the trigger never fires). A composition whose
// trigger can still fire reports false: its topology is only static
// between firings, and only its owner may serve it.
func (p *Net) StaticOracle() (*statictree.DistIndex, bool) {
	if !p.frozen() {
		return nil, false
	}
	p.oracleOnce.Do(func() {
		if !p.oracleLive {
			if p.oracle == nil {
				p.oracle = new(statictree.DistIndex)
			}
			p.oracle.Rebuild(p.t)
			p.oracleLive = true
		}
	})
	return p.oracle, true
}
