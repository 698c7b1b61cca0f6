package statictree

import (
	"math/rand"
	"testing"

	"github.com/ksan-net/ksan/internal/core"
	"github.com/ksan-net/ksan/internal/workload"
)

func TestFullTreeDistanceFormula(t *testing.T) {
	// Lemma 9 inner check at exact full sizes: a full k-ary tree of n =
	// (k^h−1)/(k−1) nodes has height h−1.
	cases := []struct{ n, k, h int }{
		{7, 2, 2}, {15, 2, 3}, {13, 3, 2}, {40, 3, 3}, {21, 4, 2}, {31, 5, 2},
	}
	for _, c := range cases {
		tree, err := Full(c.n, c.k)
		if err != nil {
			t.Fatal(err)
		}
		if got := tree.Height(); got != c.h {
			t.Errorf("full(%d,%d) height %d, want %d", c.n, c.k, got, c.h)
		}
	}
}

func TestTotalDistanceSparseMatchesUniform(t *testing.T) {
	// TotalDistance on the uniform demand must equal the O(n) edge-potential
	// evaluation.
	for _, k := range []int{2, 4} {
		tree, err := Centroid(33, k)
		if err != nil {
			t.Fatal(err)
		}
		sparse := TotalDistance(tree, workload.UniformDemand(33))
		fast := TotalDistanceUniform(tree)
		if sparse != fast {
			t.Errorf("k=%d: sparse %d != potential %d", k, sparse, fast)
		}
	}
}

func TestCentroidDegreeBound(t *testing.T) {
	// Every node of the centroid k-ary search tree respects the (k+1)
	// physical degree bound, with the re-rooted centroid hitting exactly
	// k+1 (k children + parent).
	for _, k := range []int{2, 3, 5} {
		tree, err := Centroid(120, k)
		if err != nil {
			t.Fatal(err)
		}
		maxDeg := 0
		for id := 1; id <= 120; id++ {
			if d := tree.NodeByID(id).Degree(); d > maxDeg {
				maxDeg = d
			}
		}
		if maxDeg > k+1 {
			t.Errorf("k=%d: max degree %d exceeds k+1", k, maxDeg)
		}
		if maxDeg != k+1 {
			t.Errorf("k=%d: centroid hub missing (max degree %d, want k+1)", k, maxDeg)
		}
	}
}

func TestWeightBalancedDeterministic(t *testing.T) {
	d := workload.DemandFromTrace(workload.Zipf(50, 4000, 1.2, 9))
	_, c1, err := WeightBalanced(d, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, c2, err := WeightBalanced(d, 3)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Errorf("weight-balanced not deterministic: %d vs %d", c1, c2)
	}
}

// TestBuiltTreesSplayValid splays every static builder's tree with the
// k-ary SplayNet request pattern and validates it after every request.
// The DP and weight-balanced specs give some node a last threshold equal
// to the parent threshold that bounds it; Build pads for such a threshold
// instead, because a rotation cannot split the repeated element of its
// merge and the trees went invalid within a few requests.
func TestBuiltTreesSplayValid(t *testing.T) {
	for _, k := range []int{2, 3, 4, 8} {
		for _, n := range []int{31, 100} {
			d := workload.DemandFromTrace(workload.MustCollect(workload.HotspotGen(n, 5000, 0.1, 0.9, 1)))
			builders := []struct {
				name string
				mk   func() (*core.Tree, error)
			}{
				{"optimal", func() (*core.Tree, error) { tr, _, err := Optimal(d, k); return tr, err }},
				{"weight-balanced", func() (*core.Tree, error) { tr, _, err := WeightBalanced(d, k); return tr, err }},
				{"uniform-opt", func() (*core.Tree, error) { tr, _, err := OptimalUniform(n, k); return tr, err }},
				{"centroid", func() (*core.Tree, error) { return Centroid(n, k) }},
				{"full", func() (*core.Tree, error) { return Full(n, k) }},
			}
			for _, b := range builders {
				tr, err := b.mk()
				if err != nil {
					t.Fatalf("k=%d n=%d %s: %v", k, n, b.name, err)
				}
				rng := rand.New(rand.NewSource(int64(n)))
				for op := 0; op < 200; op++ {
					u, v := 1+rng.Intn(n), 1+rng.Intn(n)
					if u == v {
						continue
					}
					a, c := tr.NodeByID(u), tr.NodeByID(v)
					_, w := tr.DistanceLCA(a, c)
					tr.SplayUntilParent(a, w.Parent())
					tr.SplayUntilParent(c, a)
					if err := tr.Validate(); err != nil {
						t.Fatalf("k=%d n=%d %s: request %d (%d→%d): %v", k, n, b.name, op, u, v, err)
					}
				}
			}
		}
	}
}
