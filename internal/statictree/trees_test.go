package statictree

import (
	"testing"

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
