package policy

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/ksan-net/ksan/internal/core"
	"github.com/ksan-net/ksan/internal/sim"
	"github.com/ksan-net/ksan/internal/statictree"
	"github.com/ksan-net/ksan/internal/workload"
)

func mustTree(t *testing.T, n, k int) *core.Tree {
	t.Helper()
	tree, err := core.NewBalanced(n, k)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestNewRejectsInvalidCompositions(t *testing.T) {
	tree := mustTree(t, 10, 3)
	if _, err := New("x", nil, Always(), Splay()); err == nil {
		t.Error("nil tree accepted")
	}
	if _, err := New("x", tree, nil, Splay()); err == nil {
		t.Error("nil trigger accepted")
	}
	if _, err := New("x", tree, Always(), nil); err == nil {
		t.Error("nil adjuster accepted")
	}
	if _, err := NewCustom("x", nil, Always(), None()); err == nil {
		t.Error("nil topology accepted")
	}
	if _, err := NewCustom("x", fakeTopology{}, Always(), Splay()); err == nil {
		t.Error("tree-needing adjuster on a custom substrate accepted")
	}
}

type fakeTopology struct{}

func (fakeTopology) N() int                       { return 4 }
func (fakeTopology) Route(u, v int, _ *Ctx) int64 { return 1 }

func TestCanonicalSplayComposition(t *testing.T) {
	// always × splay over a balanced tree is the k-ary SplayNet: after a
	// serve the pair is adjacent and the routing cost is the
	// pre-adjustment distance.
	for _, k := range []int{2, 3, 5} {
		net, err := New("kary", mustTree(t, 120, k), Always(), Splay())
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(k)))
		for i := 0; i < 300; i++ {
			u, v := 1+rng.Intn(120), 1+rng.Intn(120)
			if u == v {
				continue
			}
			want := int64(net.Tree().DistanceID(u, v))
			c := net.Serve(u, v)
			if c.Routing != want {
				t.Fatalf("k=%d: routing %d, want pre-adjustment distance %d", k, c.Routing, want)
			}
			if d := net.Tree().DistanceID(u, v); d != 1 {
				t.Fatalf("k=%d: pair at distance %d after serve", k, d)
			}
		}
		if err := net.Tree().Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// refLazy replays the pre-policy lazy net serve loop verbatim (DistanceID
// routing, map-based link churn, window and threshold bookkeeping): the
// alpha × rebuild composition must be bit-identical to it, request by
// request.
type refLazy struct {
	n, k         int
	alpha        int64
	t            *core.Tree
	sinceRebuild int64
	window       []sim.Request
	rebuilds     int64
	churn        int64
}

func (r *refLazy) serve(u, v int) sim.Cost {
	dist := int64(r.t.DistanceID(u, v))
	cost := sim.Cost{Routing: dist}
	r.sinceRebuild += dist
	if u != v {
		r.window = append(r.window, sim.Request{Src: u, Dst: v})
	}
	if r.sinceRebuild >= r.alpha && len(r.window) > 0 {
		d := workload.DemandFromTrace(workload.Trace{N: r.n, Reqs: r.window})
		fresh, _, err := statictree.WeightBalanced(d, r.k)
		if err == nil {
			ch := mapLinkChurn(r.t, fresh)
			r.t = fresh
			r.rebuilds++
			r.churn += ch
			cost.Adjust = ch
		}
		r.sinceRebuild = 0
		r.window = r.window[:0]
	}
	return cost
}

// lazyAdjusters are the two compositions of the lazy net's rebuild that
// must match refLazy: the generic Rebuild over statictree.WeightBalanced
// (the window sorted into pairs, the builder's cost discarded, a new
// arena per firing) and RebuildWeightBalanced, which rebuild-wb uses
// (point weights, no cost, built into the spare arena).
var lazyAdjusters = []struct {
	name string
	mk   func() Adjuster
}{
	{"demand-builder", func() Adjuster { return Rebuild("weight-balanced", statictree.WeightBalanced) }},
	{"point-weights", func() Adjuster { return RebuildWeightBalanced("weight-balanced") }},
}

// checkAgainstRefLazy serves reqs on an alpha × adj net and on refLazy
// side by side and fails t unless every cost, the rebuild and churn
// counts and the final tree are bit-identical. The net tracks edges,
// compacts its window every compactAfter requests (0: never), and at
// the middle of the stream takes a checkpoint, serves a quarter more,
// restores it and replays that quarter, which must cost exactly what it
// cost the first time: the restore and the rebuilds after it run with
// spare arenas the checkpoint knows nothing of.
func checkAgainstRefLazy(t *testing.T, n, k int, alpha int64, compactAfter int, adj Adjuster, reqs []sim.Request) {
	t.Helper()
	ref := &refLazy{n: n, k: k, alpha: alpha, t: mustTree(t, n, k)}
	net, err := New("lazy", mustTree(t, n, k), Alpha(alpha), adj)
	if err != nil {
		t.Fatal(err)
	}
	net.SetTrackEdges(true)
	if compactAfter > 0 {
		net.compactAfter = compactAfter
	}
	cut, rewind := len(reqs)/2, 3*len(reqs)/4
	costs := make([]sim.Cost, len(reqs))
	var cp Checkpoint
	var rebuildsAtCut, churnAtCut, replayedRebuilds, replayedChurn int64
	for i, rq := range reqs {
		switch i {
		case cut:
			if err := net.CheckpointInto(&cp); err != nil {
				t.Fatal(err)
			}
			rebuildsAtCut, churnAtCut = net.Rebuilds(), net.LinkChurn()
		case rewind:
			replayedRebuilds, replayedChurn = net.Rebuilds()-rebuildsAtCut, net.LinkChurn()-churnAtCut
			if replayedRebuilds == 0 {
				t.Fatal("no rebuilds between checkpoint and restore; the replay is vacuous")
			}
			if err := net.Restore(&cp); err != nil {
				t.Fatal(err)
			}
			for j := cut; j < rewind; j++ {
				if got := net.Serve(reqs[j].Src, reqs[j].Dst); got != costs[j] {
					t.Fatalf("replayed request %d (%d→%d): %+v, first served %+v", j, reqs[j].Src, reqs[j].Dst, got, costs[j])
				}
			}
		}
		got, want := net.Serve(rq.Src, rq.Dst), ref.serve(rq.Src, rq.Dst)
		if got != want {
			t.Fatalf("request %d (%d→%d): policy %+v, reference %+v", i, rq.Src, rq.Dst, got, want)
		}
		costs[i] = got
	}
	if net.Rebuilds() == 0 {
		t.Fatal("trace produced no rebuilds; the equivalence test is vacuous")
	}
	if net.Rebuilds() != ref.rebuilds+replayedRebuilds || net.LinkChurn() != ref.churn+replayedChurn {
		t.Errorf("rebuilds/churn %d/%d, reference %d/%d plus %d/%d replayed",
			net.Rebuilds(), net.LinkChurn(), ref.rebuilds, ref.churn, replayedRebuilds, replayedChurn)
	}
	if !reflect.DeepEqual(net.Tree().Snapshot(), ref.t.Snapshot()) {
		t.Error("final trees differ from the reference's")
	}
	if err := net.Tree().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLazyCompositionBitIdenticalToReferenceLoop(t *testing.T) {
	const n, alpha = 60, 900
	for _, a := range lazyAdjusters {
		for _, k := range []int{2, 3, 4, 8} {
			for seed := int64(0); seed < 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				reqs := make([]sim.Request, 12000)
				for i := range reqs {
					u, v := 1+rng.Intn(n), 1+rng.Intn(n)
					if i%37 == 0 {
						v = u // self-loops must be free and invisible to the policy
					}
					reqs[i] = sim.Request{Src: u, Dst: v}
				}
				t.Run(fmt.Sprintf("%s/k=%d/seed=%d", a.name, k, seed), func(t *testing.T) {
					checkAgainstRefLazy(t, n, k, alpha, 0, a.mk(), reqs)
				})
			}
		}
	}
}

func TestOracleRoutesBitIdentically(t *testing.T) {
	// The static-stretch oracle is a pure routing accelerator: with the
	// build threshold forced to 1 and to never, a deferred composition
	// must produce identical cost streams and identical final topologies.
	mk := func() *Net {
		net, err := New("periodic", mustTree(t, 90, 3), EveryM(256), Splay())
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	eager, lazy := mk(), mk()
	eager.oracleAfter = 1
	lazy.oracleAfter = 1 << 60
	rng := rand.New(rand.NewSource(11))
	sawOracle := false
	for i := 0; i < 6000; i++ {
		u, v := 1+rng.Intn(90), 1+rng.Intn(90)
		ce, cl := eager.Serve(u, v), lazy.Serve(u, v)
		if ce != cl {
			t.Fatalf("request %d (%d→%d): oracle path %+v, walk path %+v", i, u, v, ce, cl)
		}
		if eager.oracleLive {
			sawOracle = true
		}
	}
	if !sawOracle {
		t.Fatal("the eager net never built its oracle; the test exercised nothing")
	}
	if err := eager.Tree().Validate(); err != nil {
		t.Fatal(err)
	}
	ep, lp := eager.Tree().Parents(), lazy.Tree().Parents()
	for id := range ep {
		if ep[id] != lp[id] {
			t.Fatalf("final topologies diverge at node %d", id)
		}
	}
}

func TestFrozenAfterWarmupFreezes(t *testing.T) {
	net, err := New("warmup", mustTree(t, 64, 3), First(500), Splay())
	if err != nil {
		t.Fatal(err)
	}
	tr := workload.Temporal(64, 4000, 0.6, 7)
	var adjustAfterPrefix int64
	seen := 0
	for _, rq := range tr.Reqs {
		c := net.Serve(rq.Src, rq.Dst)
		if rq.Src != rq.Dst {
			seen++
		}
		if seen > 500 {
			adjustAfterPrefix += c.Adjust
		}
	}
	if adjustAfterPrefix != 0 {
		t.Errorf("adjusted (cost %d) after the warmup prefix", adjustAfterPrefix)
	}
	if net.Tree().Rotations() == 0 {
		t.Error("never adjusted during the warmup prefix")
	}
	// The frozen stretch is long, so the oracle must have kicked in.
	if !net.oracleLive {
		t.Error("frozen stretch did not engage the distance oracle")
	}
	if err := net.Tree().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestStaticOracleGates pins the frozen-topology hook: a frozen tree
// composition hands out an oracle that routes exactly like sequential
// Serve, and every composition that could adjust, or has no tree to
// index, reports false.
func TestStaticOracleGates(t *testing.T) {
	reqs := workload.Uniform(77, 8000, 5).Reqs
	frozen, err := New("frozen", mustTree(t, 77, 3), Never(), None())
	if err != nil {
		t.Fatal(err)
	}
	ix, ok := frozen.StaticOracle()
	if !ok {
		t.Fatal("frozen tree composition must have a static oracle")
	}
	seq, err := New("frozen-seq", mustTree(t, 77, 3), Never(), None())
	if err != nil {
		t.Fatal(err)
	}
	var oracle, routing int64
	for _, rq := range reqs {
		oracle += ix.Dist(rq.Src, rq.Dst)
		c := seq.Serve(rq.Src, rq.Dst)
		routing += c.Routing
		if c.Adjust != 0 {
			t.Fatal("frozen composition adjusted")
		}
	}
	if oracle != routing {
		t.Errorf("oracle routing %d, sequential %d", oracle, routing)
	}

	adjusting, err := New("kary", mustTree(t, 77, 3), Always(), Splay())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := adjusting.StaticOracle(); ok {
		t.Error("always × splay must not have a static oracle")
	}

	// A frozen custom substrate has no tree to index.
	custom, err := NewCustom("custom", fakeTopology{}, Never(), None())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := custom.StaticOracle(); ok {
		t.Error("custom-substrate composition must not have a static oracle")
	}
}

func TestFailedRebuildSurfacedAndHarmless(t *testing.T) {
	boom := errors.New("builder exploded")
	failing := func(*workload.Demand, int) (*core.Tree, int64, error) { return nil, 0, boom }
	net, err := New("fragile", mustTree(t, 30, 3), EveryM(10), Rebuild("failing", failing))
	if err != nil {
		t.Fatal(err)
	}
	before := net.Tree()
	rng := rand.New(rand.NewSource(3))
	var adjust int64
	for i := 0; i < 100; i++ {
		u, v := 1+rng.Intn(30), 1+rng.Intn(30)
		if u == v {
			continue
		}
		adjust += net.Serve(u, v).Adjust
	}
	if adjust != 0 {
		t.Errorf("failed rebuilds charged %d adjustment", adjust)
	}
	if net.Rebuilds() != 0 {
		t.Errorf("failed rebuilds counted as rebuilds: %d", net.Rebuilds())
	}
	if net.FailedRebuilds() < 2 {
		t.Errorf("only %d failures recorded; the every(10) trigger must have fired repeatedly", net.FailedRebuilds())
	}
	if !errors.Is(net.LastFailure(), boom) {
		t.Errorf("LastFailure %v does not wrap the builder error", net.LastFailure())
	}
	if net.Tree() != before {
		t.Error("failed rebuild replaced the topology")
	}
}

func TestWindowRecycledAndCapped(t *testing.T) {
	// Small windows: the backing array is reused between rebuilds.
	small, err := New("small", mustTree(t, 20, 2), EveryM(100),
		Rebuild("weight-balanced", statictree.WeightBalanced))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	serveDistinct := func(p *Net, m int) {
		n := p.N()
		for i := 0; i < m; i++ {
			u := 1 + rng.Intn(n)
			v := 1 + rng.Intn(n)
			if u == v {
				v = 1 + v%n
			}
			p.Serve(u, v)
		}
	}
	serveDistinct(small, 100)
	if small.Rebuilds() != 1 {
		t.Fatalf("expected exactly one rebuild, got %d", small.Rebuilds())
	}
	if len(small.window) != 0 {
		t.Errorf("window not reset after rebuild: %d entries", len(small.window))
	}
	capBefore := cap(small.window)
	if capBefore == 0 {
		t.Fatal("recyclable window capacity was dropped")
	}
	serveDistinct(small, 100)
	if got := cap(small.window); got != capBefore {
		t.Errorf("window capacity not recycled: %d then %d", capBefore, got)
	}

	// Long stretches compact into the running demand instead of growing
	// the raw window without bound: the window length stays under the
	// compaction threshold however rare adjustments are, and the
	// aggregate is released once the rebuild consumes it.
	big, err := New("big", mustTree(t, 20, 2), EveryM(1000),
		Rebuild("weight-balanced", statictree.WeightBalanced))
	if err != nil {
		t.Fatal(err)
	}
	big.compactAfter = 64
	serveDistinct(big, 999)
	if len(big.window) >= 64 {
		t.Errorf("window grew to %d entries despite compactAfter=64", len(big.window))
	}
	if big.pending == nil {
		t.Fatal("no compacted aggregate despite overflowing the window")
	}
	if got := big.pending.Total + int64(len(big.window)); got != 999 {
		t.Errorf("aggregate + window covers %d requests, want 999", got)
	}
	serveDistinct(big, 1)
	if big.Rebuilds() != 1 {
		t.Fatalf("expected exactly one rebuild, got %d", big.Rebuilds())
	}
	if big.pending != nil {
		t.Error("compacted aggregate retained after the rebuild consumed it")
	}
}

func TestCompactedWindowBitIdenticalToUnbounded(t *testing.T) {
	// Chunk-wise demand compaction must not change a single rebuild: a
	// net forced to compact every 64 requests serves bit-identically to
	// the unbounded-window reference loop.
	const n, alpha = 48, 2500
	rng := rand.New(rand.NewSource(17))
	reqs := make([]sim.Request, 10000)
	for i := range reqs {
		reqs[i] = sim.Request{Src: 1 + rng.Intn(n), Dst: 1 + rng.Intn(n)}
	}
	for _, a := range lazyAdjusters {
		for _, k := range []int{2, 3, 4, 8} {
			t.Run(fmt.Sprintf("%s/k=%d", a.name, k), func(t *testing.T) {
				checkAgainstRefLazy(t, n, k, alpha, 64, a.mk(), reqs)
			})
		}
	}
}

// TestSpareArenaLifetime pins the lifetime Net.Tree documents on a
// rebuild-wb net: the tree it returns survives the next rebuild
// unchanged, as the spare, and the rebuild after that builds into its
// arena. The spare is never the current tree.
func TestSpareArenaLifetime(t *testing.T) {
	net, err := New("lazy", mustTree(t, 60, 3), EveryM(100), RebuildWeightBalanced("weight-balanced"))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	fire := func() {
		t.Helper()
		before := net.Rebuilds()
		for i := 0; i < 100; i++ {
			u := 1 + rng.Intn(60)
			net.Serve(u, 1+u%60)
		}
		if net.Rebuilds() != before+1 {
			t.Fatalf("100 requests made %d rebuilds, want 1", net.Rebuilds()-before)
		}
		if net.spare == net.Tree() {
			t.Fatal("the spare arena is the current tree")
		}
	}
	fire()
	held := net.Tree()
	snap := held.Snapshot()
	fire()
	if net.Tree() == held {
		t.Fatal("the rebuild kept the current tree")
	}
	if !reflect.DeepEqual(held.Snapshot(), snap) {
		t.Fatal("the first rebuild after Tree returned changed the tree it returned")
	}
	fire()
	if net.Tree() != held {
		t.Error("the second rebuild did not build into the retired arena")
	}
	if err := net.Tree().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestUnifiedChurnAccounting(t *testing.T) {
	// Splay-family composition: LinkChurn must equal the tree's edge-churn
	// counter once tracking is on.
	splaying, err := New("kary", mustTree(t, 40, 3), Always(), Splay())
	if err != nil {
		t.Fatal(err)
	}
	splaying.SetTrackEdges(true)
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 500; i++ {
		splaying.Serve(1+rng.Intn(40), 1+rng.Intn(40))
	}
	if splaying.LinkChurn() == 0 {
		t.Fatal("rotations produced no tracked edge churn")
	}
	if got, want := splaying.LinkChurn(), splaying.Tree().EdgeChanges(); got != want {
		t.Errorf("LinkChurn %d != tree edge changes %d", got, want)
	}

	// Rebuild composition: tracking survives topology swaps and LinkChurn
	// totals swap churn plus (zero) rotation churn.
	lazy, err := New("lazy", mustTree(t, 40, 3), Alpha(300),
		Rebuild("weight-balanced", statictree.WeightBalanced))
	if err != nil {
		t.Fatal(err)
	}
	lazy.SetTrackEdges(true)
	var adjust int64
	for i := 0; i < 3000; i++ {
		u, v := 1+rng.Intn(40), 1+rng.Intn(40)
		adjust += lazy.Serve(u, v).Adjust
	}
	if lazy.Rebuilds() == 0 {
		t.Fatal("no rebuilds")
	}
	if got := lazy.LinkChurn(); got != adjust {
		t.Errorf("LinkChurn %d != summed rebuild churn %d", got, adjust)
	}
}

func TestCompositionAccessorsAndNames(t *testing.T) {
	net, err := New("my net", mustTree(t, 12, 4), EveryM(2), SemiSplay())
	if err != nil {
		t.Fatal(err)
	}
	if net.Name() != "my net" || net.N() != 12 || net.K() != 4 {
		t.Errorf("accessors: %q n=%d k=%d", net.Name(), net.N(), net.K())
	}
	if net.Trigger().Name() != "every(2)" || net.Adjuster().Name() != "semi-splay" {
		t.Errorf("composition names %q × %q", net.Trigger().Name(), net.Adjuster().Name())
	}
	var _ sim.Network = net
}

func TestSelfLoopsInvisibleToPolicy(t *testing.T) {
	net, err := New("every", mustTree(t, 10, 2), EveryM(3), Splay())
	if err != nil {
		t.Fatal(err)
	}
	// Two distinct requests, then a burst of self-loops: the third
	// distinct request must be the one that fires.
	net.Serve(1, 5)
	net.Serve(2, 7)
	for i := 0; i < 10; i++ {
		if c := net.Serve(4, 4); c != (sim.Cost{}) {
			t.Fatalf("self-loop cost %+v", c)
		}
	}
	if got := net.Tree().Rotations(); got != 0 {
		t.Fatalf("self-loops advanced the trigger: %d rotations before the third distinct request", got)
	}
	if c := net.Serve(3, 9); c.Adjust == 0 {
		t.Error("third distinct request did not fire the every(3) trigger")
	}
}

func TestComposedNameFormatting(t *testing.T) {
	// The Name strings feed grid labels; pin the format the spec layer
	// builds on.
	for _, tc := range []struct {
		trig Trigger
		want string
	}{
		{EveryM(12), "every(12)"},
		{Alpha(2000), "alpha(2000)"},
		{AlphaHysteresis(2000, 64), "alpha(2000,cd=64)"},
		{First(99), "first(99)"},
	} {
		if got := tc.trig.Name(); got != tc.want {
			t.Errorf("trigger name %q, want %q", got, tc.want)
		}
	}
	if got := Rebuild("weight-balanced", statictree.WeightBalanced).Name(); got != "weight-balanced" {
		t.Errorf("rebuild name %q", got)
	}
	if got := fmt.Sprintf("%s×%s", Always().Name(), Splay().Name()); got != "always×splay" {
		t.Errorf("composition label %q", got)
	}
}
