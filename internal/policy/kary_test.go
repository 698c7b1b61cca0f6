package policy_test

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/ksan-net/ksan/internal/core"
	"github.com/ksan-net/ksan/internal/engine"
	"github.com/ksan-net/ksan/internal/policy"
	"github.com/ksan-net/ksan/internal/sim"
	"github.com/ksan-net/ksan/internal/splaynet"
	"github.com/ksan-net/ksan/internal/workload"
)

// mustKary builds the k-ary SplayNet on n nodes for a test.
func mustKary(t testing.TB, n, k int) *policy.Net {
	t.Helper()
	net, err := policy.NewKArySplayNet(n, k)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// run serves reqs on net through the engine.
func run(t testing.TB, net sim.Network, reqs []sim.Request) sim.Result {
	t.Helper()
	res, err := engine.New().Run(context.Background(), net, reqs)
	if err != nil {
		t.Fatal(err)
	}
	return res.Result
}

func TestServeMakesPairAdjacent(t *testing.T) {
	for _, k := range []int{2, 3, 4, 5, 8, 10} {
		net := mustKary(t, 200, k)
		rng := rand.New(rand.NewSource(int64(k)))
		for i := 0; i < 250; i++ {
			u, v := 1+rng.Intn(200), 1+rng.Intn(200)
			if u == v {
				continue
			}
			net.Serve(u, v)
			if d := net.Tree().DistanceID(u, v); d != 1 {
				t.Fatalf("k=%d: after Serve(%d,%d) distance %d, want 1", k, u, v, d)
			}
		}
		if err := net.Tree().Validate(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
}

func TestServeSelfRequestFree(t *testing.T) {
	net := mustKary(t, 30, 3)
	if c := net.Serve(7, 7); c.Routing != 0 || c.Adjust != 0 {
		t.Errorf("self request cost %+v", c)
	}
}

func TestServeRoutingCostIsOldDistance(t *testing.T) {
	net := mustKary(t, 100, 4)
	u, v := 1, 100
	want := int64(net.Tree().DistanceID(u, v))
	if c := net.Serve(u, v); c.Routing != want {
		t.Errorf("routing cost %d, want pre-adjustment distance %d", c.Routing, want)
	}
}

func TestRepeatedRequestCheap(t *testing.T) {
	for _, k := range []int{2, 5, 9} {
		net := mustKary(t, 300, k)
		net.Serve(17, 250)
		c := net.Serve(17, 250)
		if c.Routing != 1 || c.Adjust != 0 {
			t.Errorf("k=%d repeated request cost %+v, want {1,0}", k, c)
		}
	}
}

func TestIdentifierPermanenceUnderServes(t *testing.T) {
	net := mustKary(t, 150, 4)
	objs := make(map[int]*core.Node)
	for id := 1; id <= 150; id++ {
		objs[id] = net.Tree().NodeByID(id)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		net.Serve(1+rng.Intn(150), 1+rng.Intn(150))
	}
	for id := 1; id <= 150; id++ {
		if net.Tree().NodeByID(id) != objs[id] || objs[id].ID() != id {
			t.Fatalf("identifier of node %d not permanent", id)
		}
	}
}

func TestHigherKLowersRoutingCost(t *testing.T) {
	// The paper's first experimental claim (Tables 1-7, row 1): the total
	// routing cost decreases as k grows. Check monotone trend end-to-end on
	// a uniform workload (allow small local non-monotonicity, require the
	// k=10 cost well below k=2).
	n, m := 255, 8000
	rng := rand.New(rand.NewSource(9))
	reqs := make([]sim.Request, m)
	for i := range reqs {
		u, v := 1+rng.Intn(n), 1+rng.Intn(n)
		for u == v {
			v = 1 + rng.Intn(n)
		}
		reqs[i] = sim.Request{Src: u, Dst: v}
	}
	cost := map[int]int64{}
	for _, k := range []int{2, 4, 10} {
		res := run(t, mustKary(t, n, k), reqs)
		cost[k] = res.Routing
	}
	if !(cost[10] < cost[4] && cost[4] < cost[2]) {
		t.Errorf("routing cost not decreasing in k: k2=%d k4=%d k10=%d", cost[2], cost[4], cost[10])
	}
	if float64(cost[10]) > 0.9*float64(cost[2]) {
		t.Errorf("k=10 saves too little over k=2: %d vs %d", cost[10], cost[2])
	}
}

func TestBinaryKAryTracksSplayNet(t *testing.T) {
	// 2-ary SplayNet and the independent binary SplayNet implementation are
	// the same algorithm up to rotation tie-breaking; their total costs on
	// the same trace must agree within a small factor.
	n, m := 127, 5000
	rng := rand.New(rand.NewSource(13))
	reqs := make([]sim.Request, m)
	for i := range reqs {
		u, v := 1+rng.Intn(n), 1+rng.Intn(n)
		for u == v {
			v = 1 + rng.Intn(n)
		}
		reqs[i] = sim.Request{Src: u, Dst: v}
	}
	kary := run(t, mustKary(t, n, 2), reqs)
	bin := run(t, splaynet.MustNew(n), reqs)
	ratio := float64(kary.Total()) / float64(bin.Total())
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("2-ary SplayNet total %d vs SplayNet %d (ratio %.3f) diverge too much",
			kary.Total(), bin.Total(), ratio)
	}
}

func TestQuickBinaryKAryMatchesSplayNetRoutingCosts(t *testing.T) {
	// The documented cross-validation claim (splaynet's package comment):
	// k-ary SplayNet with k=2 behaves like the independent binary SplayNet
	// up to rotation tie-breaking. The tie-breaks make the two topologies
	// drift, so per-request costs are not equal, but the cumulative
	// routing costs must track each other closely on any workload —
	// property-checked here across random traces of varied size, locality
	// and skew, at every prefix past a short burn-in (so a transient
	// divergence cannot hide inside an agreeing total).
	f := func(seed int64, nRaw uint8, shape uint8) bool {
		n := 16 + int(nRaw)%120
		const m, burnIn = 4000, 500
		var tr workload.Trace
		switch shape % 3 {
		case 0:
			tr = workload.Uniform(n, m, seed)
		case 1:
			tr = workload.Temporal(n, m, 0.6, seed)
		default:
			tr = workload.Zipf(n, m, 1.2, seed)
		}
		kary := mustKary(t, n, 2)
		bin := splaynet.MustNew(n)
		var kr, br int64
		for i, rq := range tr.Reqs {
			kr += kary.Serve(rq.Src, rq.Dst).Routing
			br += bin.Serve(rq.Src, rq.Dst).Routing
			if i >= burnIn {
				if ratio := float64(kr) / float64(br); ratio < 0.7 || ratio > 1.4 {
					t.Logf("n=%d seed=%d shape=%d: prefix %d cumulative routing ratio %.3f (kary %d, splaynet %d)",
						n, seed, shape%3, i, ratio, kr, br)
					return false
				}
			}
		}
		// The full-trace totals must agree even more tightly.
		ratio := float64(kr) / float64(br)
		if ratio < 0.8 || ratio > 1.25 {
			t.Logf("n=%d seed=%d shape=%d: total routing ratio %.3f", n, seed, shape%3, ratio)
			return false
		}
		return kary.Tree().Validate() == nil && bin.Validate() == nil
	}
	// Fixed generator seed: the ratio bounds are empirical envelopes, not
	// provable invariants, so the checked input set must be reproducible.
	if err := quick.Check(f, &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(31))}); err != nil {
		t.Fatal(err)
	}
}

func TestSemiSplayOnlyStillCorrect(t *testing.T) {
	net, err := policy.NewBalanced("3-ary semi-splay", 100, 3, policy.Always(), policy.SemiSplay())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 200; i++ {
		u, v := 1+rng.Intn(100), 1+rng.Intn(100)
		if u == v {
			continue
		}
		net.Serve(u, v)
		if d := net.Tree().DistanceID(u, v); d != 1 {
			t.Fatalf("semi-only: after Serve(%d,%d) distance %d", u, v, d)
		}
	}
	if err := net.Tree().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestServeFromArbitraryInitialTopology(t *testing.T) {
	tr, err := core.NewPath(60, 3)
	if err != nil {
		t.Fatal(err)
	}
	net, err := policy.New(policy.KArySplayNetName(3), tr, policy.Always(), policy.Splay())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 300; i++ {
		u, v := 1+rng.Intn(60), 1+rng.Intn(60)
		if u == v {
			continue
		}
		net.Serve(u, v)
	}
	if err := net.Tree().Validate(); err != nil {
		t.Fatal(err)
	}
	// Self-adjustment should have pulled the topology far away from the
	// degenerate path.
	if h := net.Tree().Height(); h >= 59 {
		t.Errorf("height still %d after 300 serves from a path", h)
	}
}

func TestKArySplayNetName(t *testing.T) {
	if got := mustKary(t, 10, 7).Name(); got != "7-ary SplayNet" {
		t.Errorf("Name()=%q", got)
	}
}

func TestQuickServeKeepsSearchProperty(t *testing.T) {
	f := func(seed int64, kRaw uint8, ops []uint32) bool {
		k := 2 + int(kRaw%9)
		n := 48
		net := mustKary(t, n, k)
		if len(ops) > 60 {
			ops = ops[:60]
		}
		for _, op := range ops {
			u := 1 + int(op%uint32(n))
			v := 1 + int((op/256)%uint32(n))
			net.Serve(u, v)
			if u != v && net.Tree().DistanceID(u, v) != 1 {
				return false
			}
		}
		return net.Tree().Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
