package policy

import (
	"fmt"
	"sync"

	"github.com/ksan-net/ksan/internal/core"
	"github.com/ksan-net/ksan/internal/sim"
	"github.com/ksan-net/ksan/internal/workload"
)

// Checkpoint is the full cost-relevant state of a tree-backed Net at a
// request boundary: the tree arena, the trigger's accumulated state, and
// the demand window (raw tail plus compacted aggregate). Restoring a
// checkpoint and replaying the requests served after it reproduces the
// net's routing and adjustment costs bit-for-bit — the recovery-
// equivalence guarantee the serving layer's crash recovery is built on
// (DESIGN.md §12).
//
// Deliberately excluded: diagnostics (rebuild/failure counters, link
// churn, retired edges) and derived fast-path state (static-stretch
// streak, distance oracle). Neither influences any served cost; a
// restored net re-derives the fast path and restarts diagnostics from
// the values it had at compose time.
//
// A Checkpoint is reused across CheckpointInto calls: its backing arrays
// are recycled, so periodic checkpointing allocates nothing in steady
// state.
type Checkpoint struct {
	Tree    core.Snapshot
	Trig    []int64
	Window  []sim.Request
	Pending *workload.Demand

	// Taken reports whether the checkpoint has been populated; the zero
	// Checkpoint is not restorable.
	Taken bool
}

// Checkpointable reports whether the net supports CheckpointInto/Restore:
// a tree substrate (custom topologies have no wire form) and a trigger
// whose state is either empty or capturable.
func (p *Net) Checkpointable() bool {
	if p.t == nil {
		return false
	}
	switch p.trig.(type) {
	case alwaysTrigger, neverTrigger, StatefulTrigger:
		return true
	}
	return false
}

// CheckpointInto overwrites cp with the net's current cost-relevant
// state, reusing cp's backing arrays. It must be called at a request
// boundary (never from inside Serve) and fails on compositions that
// cannot be checkpointed — custom substrates, or a trigger that neither
// is stateless nor implements StatefulTrigger.
func (p *Net) CheckpointInto(cp *Checkpoint) error {
	if p.t == nil {
		return fmt.Errorf("policy: net %q has a custom substrate; only tree-backed nets checkpoint", p.name)
	}
	switch tr := p.trig.(type) {
	case alwaysTrigger, neverTrigger:
		cp.Trig = cp.Trig[:0]
	case StatefulTrigger:
		cp.Trig = tr.AppendState(cp.Trig[:0])
	default:
		return fmt.Errorf("policy: trigger %q carries state but does not implement StatefulTrigger", p.trig.Name())
	}
	p.t.SnapshotInto(&cp.Tree)
	cp.Window = append(cp.Window[:0], p.window...)
	cp.Pending = p.pending.Clone()
	cp.Taken = true
	return nil
}

// Restore rebuilds the net's cost-relevant state from a checkpoint taken
// on an identically composed net (same n, k, trigger and adjuster
// parameters): the tree is reconstructed through core.FromSnapshot with
// full structural re-validation, the trigger state is overwritten, and
// the demand window is deep-copied back after checkWindow accepts it.
// Derived fast-path state resets (the static stretch restarts; the
// oracle rebuilds on demand) and diagnostics counters are left
// untouched. On any error the net is unchanged.
func (p *Net) Restore(cp *Checkpoint) error {
	if p.t == nil {
		return fmt.Errorf("policy: net %q has a custom substrate; only tree-backed nets restore", p.name)
	}
	if !cp.Taken {
		return fmt.Errorf("policy: restore from an empty checkpoint")
	}
	t, err := core.FromSnapshot(cp.Tree)
	if err != nil {
		return fmt.Errorf("policy: restore %q: %w", p.name, err)
	}
	if t.N() != p.t.N() || t.K() != p.t.K() {
		return fmt.Errorf("policy: restore %q: checkpoint is n=%d k=%d, net is n=%d k=%d",
			p.name, t.N(), t.K(), p.t.N(), p.t.K())
	}
	if err := p.checkWindow(cp); err != nil {
		return fmt.Errorf("policy: restore %q: %w", p.name, err)
	}
	switch tr := p.trig.(type) {
	case alwaysTrigger, neverTrigger:
		if len(cp.Trig) != 0 {
			return fmt.Errorf("policy: restore %q: %d trigger-state words for stateless trigger %q",
				p.name, len(cp.Trig), p.trig.Name())
		}
	case StatefulTrigger:
		if err := tr.RestoreState(cp.Trig); err != nil {
			return fmt.Errorf("policy: restore %q: %w", p.name, err)
		}
	default:
		return fmt.Errorf("policy: trigger %q carries state but does not implement StatefulTrigger", p.trig.Name())
	}
	t.SetTrackEdges(p.trackEdges)
	p.retiredEdges += p.t.EdgeChanges()
	p.t = t
	p.window = append(p.window[:0], cp.Window...)
	p.pending = cp.Pending.Clone()
	p.streak = 0
	p.oracleLive = false
	p.oracleOnce = sync.Once{}
	return nil
}

// checkWindow checks a checkpoint's demand window against the net: a net
// that keeps no window has none to restore, every request of the raw
// window and every pair of the compacted aggregate is one the net could
// have served (both ends in 1..n, and distinct), and the aggregate is in
// the form compaction leaves it — n nodes, pairs in strictly increasing
// (Src, Dst) order with positive counts that sum to its total. An
// adjuster indexes its weights by these ids, so a window that fails here
// would panic at the next firing.
func (p *Net) checkWindow(cp *Checkpoint) error {
	n := p.t.N()
	if !p.needsWindow && (len(cp.Window) > 0 || cp.Pending != nil) {
		return fmt.Errorf("a demand window for a net that keeps none")
	}
	bad := func(u, v int) bool { return u < 1 || u > n || v < 1 || v > n || u == v }
	for i, rq := range cp.Window {
		if bad(rq.Src, rq.Dst) {
			return fmt.Errorf("window request %d (%d→%d) is not a request on 1..%d", i, rq.Src, rq.Dst, n)
		}
	}
	d := cp.Pending
	if d == nil {
		return nil
	}
	if d.N != n {
		return fmt.Errorf("window aggregate over n=%d, net is n=%d", d.N, n)
	}
	var total int64
	for i, pc := range d.Pairs {
		if bad(pc.Src, pc.Dst) || pc.Count < 1 {
			return fmt.Errorf("window aggregate pair %d (%d→%d ×%d) is not a request count on 1..%d",
				i, pc.Src, pc.Dst, pc.Count, n)
		}
		if i > 0 {
			if q := d.Pairs[i-1]; q.Src > pc.Src || q.Src == pc.Src && q.Dst >= pc.Dst {
				return fmt.Errorf("window aggregate pairs %d and %d out of order", i-1, i)
			}
		}
		total += pc.Count
	}
	if total != d.Total {
		return fmt.Errorf("window aggregate counts sum to %d, its total says %d", total, d.Total)
	}
	return nil
}
