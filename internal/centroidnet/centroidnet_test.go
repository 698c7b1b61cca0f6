package centroidnet

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/ksan-net/ksan/internal/engine"
	"github.com/ksan-net/ksan/internal/sim"
	"github.com/ksan-net/ksan/internal/splaynet"
	"github.com/ksan-net/ksan/internal/workload"
)

func TestNewStructure(t *testing.T) {
	for _, k := range []int{2, 3, 5, 10} {
		for _, n := range []int{8, 50, 100, 500} {
			net, err := New(n, k)
			if err != nil {
				t.Fatalf("New(%d,%d): %v", n, k, err)
			}
			if err := net.CheckInvariants(); err != nil {
				t.Fatalf("New(%d,%d): %v", n, k, err)
			}
			c1, c2 := net.Centroids()
			if net.Tree().Root().ID() != c1 {
				t.Fatalf("n=%d k=%d: root is not c1", n, k)
			}
			if got := net.Tree().DistanceID(c1, c2); got != 1 {
				t.Fatalf("n=%d k=%d: d(c1,c2)=%d, want 1", n, k, got)
			}
			// Figure 8: c1 has up to k children (k−1 subtrees + c2), c2 up
			// to k subtrees → 2k−1 regions at most.
			if len(net.regions) > 2*k-1 {
				t.Fatalf("n=%d k=%d: %d regions, max %d", n, k, len(net.regions), 2*k-1)
			}
		}
	}
}

func TestNewRejectsBadParams(t *testing.T) {
	if _, err := New(2, 2); err == nil {
		t.Error("New(2,2) should fail (needs 3 nodes)")
	}
	if _, err := New(10, 1); err == nil {
		t.Error("New(10,1) should fail (arity)")
	}
}

func TestSubtreeSizesFollowPaperProportions(t *testing.T) {
	// c2's k subtrees have ≈ (n−2)/(k+1) nodes each and c1's side holds the
	// remaining ≈ (n−2)/(k+1) in total (Section 4.2).
	n, k := 1002, 4
	net := MustNew(n, k)
	per := (n - 2) / (k + 1) // 200
	var smallTotal int
	for _, r := range net.regions {
		size := r.hi - r.lo + 1
		if r.anchor == net.c2 {
			if size < per-1 || size > per+1 {
				t.Errorf("big subtree size %d, want ≈%d", size, per)
			}
		} else {
			smallTotal += size
		}
	}
	if smallTotal < per-1 || smallTotal > per+1 {
		t.Errorf("small side total %d, want ≈%d", smallTotal, per)
	}
}

func TestCentroidsNeverMove(t *testing.T) {
	net := MustNew(200, 2)
	c1, c2 := net.Centroids()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		u, v := 1+rng.Intn(200), 1+rng.Intn(200)
		net.Serve(u, v)
		if net.Tree().Root().ID() != c1 {
			t.Fatalf("c1 moved away from the root after serving (%d,%d)", u, v)
		}
		if p := net.Tree().NodeByID(c2).Parent(); p == nil || p.ID() != c1 {
			t.Fatalf("c2 detached from c1 after serving (%d,%d)", u, v)
		}
	}
	if err := net.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRegionsStayIntact(t *testing.T) {
	for _, k := range []int{2, 3, 7} {
		net := MustNew(150, k)
		rng := rand.New(rand.NewSource(int64(k)))
		for i := 0; i < 400; i++ {
			net.Serve(1+rng.Intn(150), 1+rng.Intn(150))
		}
		if err := net.CheckInvariants(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
}

func TestSameRegionRequestBecomesAdjacent(t *testing.T) {
	net := MustNew(300, 2)
	// Pick two ids in the same region.
	r := net.regions[0]
	if r.hi-r.lo < 2 {
		t.Skip("region too small")
	}
	u, v := r.lo, r.hi
	net.Serve(u, v)
	if d := net.Tree().DistanceID(u, v); d != 1 {
		t.Errorf("same-region pair at distance %d after serve, want 1", d)
	}
}

func TestCrossRegionRequestShortPath(t *testing.T) {
	net := MustNew(300, 2)
	// One endpoint under c1's subtree, one under c2's.
	var ua, vb int
	for _, r := range net.regions {
		if r.anchor == net.c1 && ua == 0 {
			ua = r.lo
		}
		if r.anchor == net.c2 && vb == 0 {
			vb = r.lo
		}
	}
	if ua == 0 || vb == 0 {
		t.Fatal("regions missing")
	}
	net.Serve(ua, vb)
	// After splaying to subtree roots: ua—c1—c2—vb.
	if d := net.Tree().DistanceID(ua, vb); d != 3 {
		t.Errorf("cross-side pair at distance %d after serve, want 3", d)
	}
	// Repeat request costs exactly that routing and no rotations.
	c := net.Serve(ua, vb)
	if c.Routing != 3 || c.Adjust != 0 {
		t.Errorf("repeated cross-side request cost %+v, want {3,0}", c)
	}
}

func TestCentroidEndpointRequests(t *testing.T) {
	net := MustNew(100, 3)
	c1, c2 := net.Centroids()
	if c := net.Serve(c1, c2); c.Routing != 1 || c.Adjust != 0 {
		t.Errorf("c1→c2 cost %+v, want {1,0}", c)
	}
	// Centroid to subtree node: only the non-centroid endpoint splays.
	other := net.regions[0].lo
	net.Serve(c1, other)
	if err := net.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if c := net.Serve(c1, other); c.Adjust != 0 {
		t.Errorf("repeated centroid request still adjusts: %+v", c)
	}
}

func TestSelfRequestFree(t *testing.T) {
	net := MustNew(50, 2)
	if c := net.Serve(7, 7); c != (sim.Cost{}) {
		t.Errorf("self request cost %+v", c)
	}
}

func TestName(t *testing.T) {
	if got := MustNew(50, 2).Name(); got != "3-SplayNet" {
		t.Errorf("Name()=%q, want 3-SplayNet", got)
	}
	if got := MustNew(50, 4).Name(); got != "5-SplayNet" {
		t.Errorf("Name()=%q, want 5-SplayNet", got)
	}
}

func TestLowLocalityBeatsSplayNetHighLocalityLoses(t *testing.T) {
	// The paper's Table 8 observation, as a coarse qualitative check: on
	// low temporal locality 3-SplayNet is competitive with SplayNet (it
	// avoids wasteful global restructuring), while on very high locality it
	// is somewhat worse (fixed centroids are in the way). We assert the
	// RELATIVE ordering of the two ratios rather than absolute wins, which
	// depend on trace details.
	n, m := 255, 30000
	total := func(net sim.Network, reqs []sim.Request) int64 {
		res, err := engine.New().Run(context.Background(), net, reqs)
		if err != nil {
			t.Fatal(err)
		}
		return res.Total()
	}
	ratio := func(p float64) float64 {
		tr := workload.Temporal(n, m, p, 11)
		cen := total(MustNew(n, 2), tr.Reqs)
		spl := total(splaynet.MustNew(n), tr.Reqs)
		return float64(cen) / float64(spl)
	}
	low, high := ratio(0.25), ratio(0.9)
	if low >= high {
		t.Errorf("3-SplayNet/SplayNet ratio at p=0.25 (%.3f) should beat p=0.9 (%.3f)", low, high)
	}
}

func TestQuickServeKeepsInvariants(t *testing.T) {
	f := func(seed int64, kRaw uint8, ops []uint32) bool {
		k := 2 + int(kRaw%4)
		n := 80
		net := MustNew(n, k)
		if len(ops) > 60 {
			ops = ops[:60]
		}
		for _, op := range ops {
			u := 1 + int(op%uint32(n))
			v := 1 + int((op/128)%uint32(n))
			net.Serve(u, v)
		}
		return net.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestEvenParts(t *testing.T) {
	cases := []struct {
		lo, hi, want int
		parts        int
	}{
		{1, 10, 2, 2},
		{1, 10, 3, 3},
		{1, 2, 5, 2},
		{5, 4, 3, 0},
		{1, 9, 3, 3},
	}
	for _, c := range cases {
		got := evenParts(c.lo, c.hi, c.want)
		if len(got) != c.parts {
			t.Errorf("evenParts(%d,%d,%d) = %v", c.lo, c.hi, c.want, got)
			continue
		}
		// Contiguity and coverage.
		next := c.lo
		for _, p := range got {
			if p[0] != next || p[1] < p[0] {
				t.Errorf("evenParts(%d,%d,%d) = %v not contiguous", c.lo, c.hi, c.want, got)
				break
			}
			next = p[1] + 1
		}
		if len(got) > 0 && got[len(got)-1][1] != c.hi {
			t.Errorf("evenParts(%d,%d,%d) = %v does not cover", c.lo, c.hi, c.want, got)
		}
	}
}
