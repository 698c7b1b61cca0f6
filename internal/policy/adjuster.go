package policy

import (
	"fmt"

	"github.com/ksan-net/ksan/internal/core"
	"github.com/ksan-net/ksan/internal/sim"
	"github.com/ksan-net/ksan/internal/statictree"
	"github.com/ksan-net/ksan/internal/workload"
)

// Adjuster decides how a policy net restructures once its trigger
// fires. Adjust runs after the request in ctx was routed and returns
// the adjustment cost charged under the paper's model (one unit per
// rotation for the splay family, links added plus removed for
// rebuilds). The two capability methods let New validate a composition
// eagerly: NeedsTree marks adjusters that operate on ctx.Tree/A/B/W
// (rejected on custom substrates), NeedsWindow marks adjusters that
// consume the accumulated request window (the net only pays for window
// bookkeeping when one is composed).
type Adjuster interface {
	// Name identifies the adjuster in composition labels.
	Name() string
	// Adjust restructures the substrate and returns the cost charged.
	Adjust(ctx *Ctx) int64
	// NeedsWindow reports whether the net must accumulate the requests
	// served between adjustments for this adjuster.
	NeedsWindow() bool
	// NeedsTree reports whether the adjuster requires a core.Tree-backed
	// substrate.
	NeedsTree() bool
}

// Ctx is the adjustment context of one served request. The Net owns a
// single Ctx and reuses it across serves (the zero-allocation serve
// contract); adjusters must not retain it.
type Ctx struct {
	// U and V are the request endpoints. U != V: self-loop requests
	// never reach the policy.
	U, V int
	// Dist is the routing cost charged for the request, measured on the
	// pre-adjustment topology.
	Dist int64
	// Tree is the current tree of a tree-backed net (nil on custom
	// substrates), and A, B, W are the endpoints' nodes and their lowest
	// common ancestor in it, valid at route time.
	Tree    *core.Tree
	A, B, W *core.Node
	// Window holds the most recent raw non-self-loop requests served
	// since the last adjustment, the current one included. Long stretches
	// are compacted incrementally (see Demand, which folds the compacted
	// aggregate back in). It is populated only for adjusters whose
	// NeedsWindow is true and only valid during Adjust.
	Window []sim.Request

	net *Net
}

// Demand aggregates all traffic observed since the last adjustment: the
// incrementally compacted overflow chunks plus the live Window. This is
// the input of demand-driven adjusters; it equals aggregating the raw
// request stretch directly (demand aggregation is associative). Only
// valid during Adjust. The net's compacted aggregate is read, never
// mutated, so repeated calls within one Adjust return equal demands.
func (c *Ctx) Demand() *workload.Demand {
	d := workload.DemandFromTrace(workload.Trace{N: c.net.N(), Reqs: c.Window})
	d.Merge(c.net.pending)
	return d
}

// ReplaceTree swaps the net's topology for fresh and returns the link
// churn of the swap (links added plus removed, the model's raw
// reconfiguration cost) — the adjustment-cost currency of rebuild-style
// adjusters. It increments the net's rebuild counter, carries the edge-
// tracking setting over to the fresh tree, invalidates the static-
// stretch distance oracle, and keeps the retired tree as the net's
// spare arena, which RebuildWeightBalanced builds its next tree into.
// It panics on a custom-substrate net.
func (c *Ctx) ReplaceTree(fresh *core.Tree) int64 {
	p := c.net
	if p.t == nil {
		panic("policy: ReplaceTree on a net without a core.Tree substrate")
	}
	churn := linkChurn(p.t, fresh)
	p.retiredEdges += p.t.EdgeChanges()
	fresh.SetTrackEdges(p.trackEdges)
	if fresh != p.t {
		p.spare = p.t
	}
	p.t = fresh
	c.Tree = fresh
	p.oracleLive = false
	p.rebuilds++
	p.churn += churn
	return churn
}

// Fail records a failed adjustment (e.g. a rebuild whose builder
// errored) on the net: FailedRebuilds is incremented and LastFailure
// keeps err. The topology is left unchanged; the caller should charge
// zero cost.
func (c *Ctx) Fail(err error) {
	c.net.failedRebuilds++
	c.net.lastFailure = err
}

// Splay is the full k-splay adjustment of the paper's online networks:
// the source is splayed to the position of the request pair's lowest
// common ancestor and the destination to a child of the source, with
// double (k-splay) steps where possible.
func Splay() Adjuster { return splayAdjuster{} }

type splayAdjuster struct{}

func (splayAdjuster) Name() string      { return "splay" }
func (splayAdjuster) NeedsWindow() bool { return false }
func (splayAdjuster) NeedsTree() bool   { return true }
func (splayAdjuster) Adjust(ctx *Ctx) int64 {
	t := ctx.Tree
	before := t.Rotations()
	t.SplayUntilParent(ctx.A, ctx.W.Parent())
	t.SplayUntilParent(ctx.B, ctx.A)
	return t.Rotations() - before
}

// SemiSplay restricts the repertoire to single k-semi-splay steps (the
// rotation-repertoire ablation of the evaluation).
func SemiSplay() Adjuster { return semiSplayAdjuster{} }

type semiSplayAdjuster struct{}

func (semiSplayAdjuster) Name() string      { return "semi-splay" }
func (semiSplayAdjuster) NeedsWindow() bool { return false }
func (semiSplayAdjuster) NeedsTree() bool   { return true }
func (semiSplayAdjuster) Adjust(ctx *Ctx) int64 {
	t := ctx.Tree
	before := t.Rotations()
	t.SemiSplayUntilParent(ctx.A, ctx.W.Parent())
	t.SemiSplayUntilParent(ctx.B, ctx.A)
	return t.Rotations() - before
}

// None never restructures; composed with Never it is the frozen/static
// corner of the policy plane. (Composing it with a firing trigger is
// legal but pointless; the spec layer rejects that combination as a
// document-describes-a-different-experiment error.)
func None() Adjuster { return noneAdjuster{} }

type noneAdjuster struct{}

func (noneAdjuster) Name() string      { return "none" }
func (noneAdjuster) NeedsWindow() bool { return false }
func (noneAdjuster) NeedsTree() bool   { return false }
func (noneAdjuster) Adjust(*Ctx) int64 { return 0 }

// Builder computes a static demand-aware topology of the given arity
// for a demand window, and its cost for that demand
// (statictree.WeightBalanced and statictree.Optimal are the stock
// implementations; RebuildWeightBalanced rebuilds weight-balanced trees
// without one).
type Builder func(d *workload.Demand, k int) (*core.Tree, int64, error)

// Rebuild recomputes the whole topology from the demand observed since
// the last adjustment (the window) and swaps it in, charging the link
// churn of the swap — the lazy self-adjusting scheme's "how". A builder
// failure leaves the topology unchanged, charges nothing, and is
// surfaced through the net's FailedRebuilds counter and LastFailure
// (the window still resets, as a fresh measurement stretch begins
// either way). It panics on a nil builder.
func Rebuild(name string, b Builder) Adjuster {
	if b == nil {
		panic("policy: Rebuild with a nil builder")
	}
	return &rebuildAdjuster{name: name, b: b}
}

type rebuildAdjuster struct {
	name string
	b    Builder
}

func (r *rebuildAdjuster) Name() string      { return r.name }
func (r *rebuildAdjuster) NeedsWindow() bool { return true }
func (r *rebuildAdjuster) NeedsTree() bool   { return true }
func (r *rebuildAdjuster) Adjust(ctx *Ctx) int64 {
	t := ctx.Tree
	fresh, _, err := r.b(ctx.Demand(), t.K())
	if err != nil {
		ctx.Fail(fmt.Errorf("policy: %s rebuild failed, topology unchanged: %w", r.name, err))
		return 0
	}
	return ctx.ReplaceTree(fresh)
}

// RebuildWeightBalanced is Rebuild(name, statictree.WeightBalanced)
// doing only the work its decision depends on: the weight-balanced rule
// reads point weights, not pairs, and Adjust charges link churn, not
// the builder's cost. So it sums the point weights of the window and
// the compacted aggregate in O(window + aggregate pairs) instead of
// sorting them into a pair list, never evaluates the new tree's total
// distance, and builds into the tree the net's last swap retired (its
// spare arena). Trees, churn and failures are bit-identical to
// Rebuild's, and a steady-state firing allocates nothing. Each adjuster
// keeps its own scratch, so a net needs its own adjuster.
func RebuildWeightBalanced(name string) Adjuster {
	return &wbAdjuster{name: name}
}

type wbAdjuster struct {
	name string
	wb   statictree.WeightBalancer
}

func (r *wbAdjuster) Name() string      { return r.name }
func (r *wbAdjuster) NeedsWindow() bool { return true }
func (r *wbAdjuster) NeedsTree() bool   { return true }
func (r *wbAdjuster) Adjust(ctx *Ctx) int64 {
	p := ctx.net
	// The point weights of Ctx.Demand, summed without aggregating pairs.
	w := r.wb.Weights(p.t.N())
	for _, rq := range ctx.Window {
		w[rq.Src]++
		w[rq.Dst]++
	}
	if p.pending != nil {
		for _, pc := range p.pending.Pairs {
			w[pc.Src] += pc.Count
			w[pc.Dst] += pc.Count
		}
	}
	fresh, err := r.wb.BuildWeights(p.spare, w, p.t.K())
	if err != nil {
		ctx.Fail(fmt.Errorf("policy: %s rebuild failed, topology unchanged: %w", r.name, err))
		return 0
	}
	return ctx.ReplaceTree(fresh)
}
