package statictree

import (
	"math"
	"testing"

	"github.com/ksan-net/ksan/internal/workload"
)

func TestOptimalUniformMatchesGenericDP(t *testing.T) {
	// On the uniform demand, the shape-based O(n²·log k) DP must never
	// exceed the routing-based O(n³k) DP (it optimizes over a superset of
	// trees), and both reconstructions must report their true total
	// distance.
	for _, k := range []int{2, 3, 4, 6} {
		for _, n := range []int{2, 3, 5, 9, 14, 20} {
			d := workload.UniformDemand(n)
			gTree, gCost, err := Optimal(d, k)
			if err != nil {
				t.Fatal(err)
			}
			uTree, uCost, err := OptimalUniform(n, k)
			if err != nil {
				t.Fatal(err)
			}
			if err := uTree.Validate(); err != nil {
				t.Fatalf("n=%d k=%d: %v", n, k, err)
			}
			if got := TotalDistanceUniform(uTree); got != uCost {
				t.Fatalf("n=%d k=%d: uniform tree distance %d != DP cost %d", n, k, got, uCost)
			}
			if got := TotalDistanceUniform(gTree); got != gCost {
				t.Fatalf("n=%d k=%d: generic tree distance %d != DP cost %d", n, k, got, gCost)
			}
			if uCost > gCost {
				t.Errorf("n=%d k=%d: shape DP %d worse than routing-based DP %d", n, k, uCost, gCost)
			}
		}
	}
}

func TestOptimalUniformSmallClosedForms(t *testing.T) {
	// n=2: single edge, one pair at distance 1.
	_, c, err := OptimalUniform(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c != 1 {
		t.Errorf("n=2 uniform optimum %d, want 1", c)
	}
	// n=3, k=2: the best BST is a root with two children: pairs (1,2),(2,3)
	// at distance 1 and (1,3) at distance 2 → 4.
	_, c, err = OptimalUniform(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c != 4 {
		t.Errorf("n=3 uniform optimum %d, want 4", c)
	}
	// n=4, k=3: a star around the root: 3 pairs at distance 1, 3 at 2 → 9.
	_, c, err = OptimalUniform(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if c != 9 {
		t.Errorf("n=4 k=3 uniform optimum %d, want 9", c)
	}
}

func TestOptimalUniformBeatsFullTree(t *testing.T) {
	for _, k := range []int{2, 3, 5} {
		for _, n := range []int{50, 100, 200} {
			_, opt, err := OptimalUniform(n, k)
			if err != nil {
				t.Fatal(err)
			}
			full, err := Full(n, k)
			if err != nil {
				t.Fatal(err)
			}
			if fc := TotalDistanceUniform(full); opt > fc {
				t.Errorf("n=%d k=%d: uniform optimum %d worse than full tree %d", n, k, opt, fc)
			}
		}
	}
}

func TestCentroidMatchesUniformOptimum(t *testing.T) {
	// Remark 10 / Remark 37: the centroid k-ary search tree is observed to
	// be exactly optimal for the uniform workload for all n < 10³, k ≤ 10.
	// Check a grid of sizes including every n ≤ 64.
	ns := []int{}
	for n := 1; n <= 64; n++ {
		ns = append(ns, n)
	}
	ns = append(ns, 100, 127, 128, 200, 255, 341, 500, 729, 999)
	for _, k := range []int{2, 3, 4, 5, 7, 10} {
		_, err := Centroid(2, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range ns {
			cen, err := Centroid(n, k)
			if err != nil {
				t.Fatalf("Centroid(%d,%d): %v", n, k, err)
			}
			if err := cen.Validate(); err != nil {
				t.Fatalf("Centroid(%d,%d) invalid: %v", n, k, err)
			}
			_, opt, err := OptimalUniform(n, k)
			if err != nil {
				t.Fatal(err)
			}
			if got := TotalDistanceUniform(cen); got != opt {
				t.Errorf("n=%d k=%d: centroid total distance %d != uniform optimum %d (Remark 10)",
					n, k, got, opt)
			}
		}
	}
}

func TestCentroidSubtreeSizes(t *testing.T) {
	// Sizes must sum to n-1, be weakly decreasing, and stay within one
	// last-level unit of each other when all levels but the last are full.
	for _, k := range []int{2, 3, 5, 10} {
		for _, n := range []int{3, 10, 50, 100, 1000} {
			sizes := CentroidSubtreeSizes(n, k)
			if len(sizes) != k+1 {
				t.Fatalf("n=%d k=%d: %d subtrees, want %d", n, k, len(sizes), k+1)
			}
			sum := 0
			for i, s := range sizes {
				sum += s
				if i > 0 && s > sizes[i-1] {
					t.Fatalf("n=%d k=%d: sizes %v not left-packed", n, k, sizes)
				}
			}
			if sum != n-1 {
				t.Fatalf("n=%d k=%d: sizes %v sum to %d, want %d", n, k, sizes, sum, n-1)
			}
		}
	}
}

func TestCentroidFullCase(t *testing.T) {
	// n = 1 + (k+1)·(k^h−1)/(k−1) gives a perfectly full centroid tree; all
	// subtrees must then be equal.
	k := 3
	n := 1 + 4*(1+3+9) // h=3 levels per subtree
	sizes := CentroidSubtreeSizes(n, k)
	for _, s := range sizes {
		if s != 13 {
			t.Fatalf("full centroid subtree sizes %v, want all 13", sizes)
		}
	}
}

func TestLemma9TotalDistanceScaling(t *testing.T) {
	// Lemma 9/36: both the full k-ary tree and the centroid tree have total
	// distance n²·log_k n + O(n²). Check the normalized ratio approaches a
	// constant near 1 as n grows.
	for _, k := range []int{2, 3, 5} {
		for _, n := range []int{512, 1024, 2048} {
			full, err := Full(n, k)
			if err != nil {
				t.Fatal(err)
			}
			cen, err := Centroid(n, k)
			if err != nil {
				t.Fatal(err)
			}
			logK := logBase(float64(n), float64(k))
			for name, tree := range map[string]int64{
				"full":     TotalDistanceUniform(full),
				"centroid": TotalDistanceUniform(cen),
			} {
				ratio := float64(tree) / (float64(n) * float64(n) * logK)
				// n² log_k n + O(n²): the O(n²) slack divided by n² log_k n
				// is O(1/log n), so the ratio must sit near 1.
				if ratio < 0.5 || ratio > 1.5 {
					t.Errorf("k=%d n=%d %s: total distance ratio %.3f far from 1", k, n, name, ratio)
				}
			}
		}
	}
}

func logBase(x, b float64) float64 {
	return math.Log(x) / math.Log(b)
}
