package policy_test

import (
	"testing"

	"github.com/ksan-net/ksan/internal/core"
	"github.com/ksan-net/ksan/internal/policy"
	"github.com/ksan-net/ksan/internal/sim"
	"github.com/ksan-net/ksan/internal/statictree"
	"github.com/ksan-net/ksan/internal/workload"
)

// mustLazy builds the lazy k-ary net on n nodes for a test.
func mustLazy(t testing.TB, n, k int, alpha int64) *policy.Net {
	t.Helper()
	net, err := policy.NewLazy(n, k, alpha)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestNewLazyRejectsBadParams(t *testing.T) {
	if _, err := policy.NewLazy(10, 3, 0); err == nil {
		t.Error("alpha=0 accepted")
	}
	if _, err := policy.NewLazy(0, 3, 10); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestNoRebuildBelowThreshold(t *testing.T) {
	net := mustLazy(t, 50, 3, 1<<40)
	tr := workload.Uniform(50, 2000, 1)
	res := run(t, net, tr.Reqs)
	if net.Rebuilds() != 0 {
		t.Errorf("rebuilt %d times below threshold", net.Rebuilds())
	}
	if res.Adjust != 0 {
		t.Errorf("adjustment cost %d without rebuilds", res.Adjust)
	}
}

func TestRebuildTriggersAtThreshold(t *testing.T) {
	net := mustLazy(t, 50, 3, 500)
	tr := workload.Zipf(50, 5000, 1.3, 2)
	res := run(t, net, tr.Reqs)
	if net.Rebuilds() == 0 {
		t.Error("never rebuilt despite a low threshold")
	}
	if res.Adjust == 0 {
		t.Error("rebuilds must charge link churn")
	}
	if err := net.Tree().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRebuildAdaptsToSkew(t *testing.T) {
	// After rebuilds driven by a skewed demand, the hot pair must sit close.
	net := mustLazy(t, 60, 2, 2000)
	reqs := make([]sim.Request, 4000)
	for i := range reqs {
		if i%4 == 0 {
			reqs[i] = sim.Request{Src: 7, Dst: 55}
		} else {
			reqs[i] = sim.Request{Src: 1 + i%60, Dst: 1 + (i*13)%60}
			if reqs[i].Src == reqs[i].Dst {
				reqs[i].Dst = 1 + reqs[i].Dst%60
			}
		}
	}
	run(t, net, reqs)
	if net.Rebuilds() == 0 {
		t.Fatal("expected rebuilds")
	}
	// The weight-balanced rebuild is an approximation, so require the hot
	// pair to sit strictly closer than in the oblivious full tree rather
	// than exactly adjacent.
	full, err := statictree.Full(60, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got, obl := net.Tree().DistanceID(7, 55), full.DistanceID(7, 55); got >= obl {
		t.Errorf("hot pair at distance %d after rebuilds, oblivious tree has %d", got, obl)
	}
}

func TestLazyBeatsStaticUnderDrift(t *testing.T) {
	// A workload whose hot set drifts over time: the lazy net re-optimizes
	// per epoch and must beat the one-shot oblivious tree on routing cost.
	n := 64
	var reqs []sim.Request
	for epoch := 0; epoch < 8; epoch++ {
		base := 1 + epoch*7
		for i := 0; i < 3000; i++ {
			u := 1 + (base+i%4)%n
			v := 1 + (base+3+(i*7)%5)%n
			if u == v {
				v = 1 + v%n
			}
			reqs = append(reqs, sim.Request{Src: u, Dst: v})
		}
	}
	lazy := mustLazy(t, n, 2, 4000)
	lres := run(t, lazy, reqs)
	full, err := statictree.Full(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	static, err := policy.New("full", full, policy.Never(), policy.None())
	if err != nil {
		t.Fatal(err)
	}
	fres := run(t, static, reqs)
	if lres.Routing >= fres.Routing {
		t.Errorf("lazy routing %d not below static full tree %d under drift", lres.Routing, fres.Routing)
	}
}

func TestExactBuilderForSmallNetworks(t *testing.T) {
	// The former SetBuilder escape hatch is now a composition: the same
	// α-trigger with the exact-DP rebuild adjuster.
	tree, err := core.NewBalanced(24, 3)
	if err != nil {
		t.Fatal(err)
	}
	net, err := policy.New("lazy exact", tree, policy.Alpha(300),
		policy.Rebuild("optimal", statictree.Optimal))
	if err != nil {
		t.Fatal(err)
	}
	tr := workload.ProjecToRLike(24, 3000, 3)
	run(t, net, tr.Reqs)
	if net.Rebuilds() == 0 {
		t.Fatal("expected rebuilds with the exact builder")
	}
	if err := net.Tree().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLazyName(t *testing.T) {
	if got := mustLazy(t, 10, 4, 100).Name(); got != "lazy 4-ary net (α=100)" {
		t.Errorf("Name()=%q", got)
	}
}
