package statictree

import (
	"math/rand"
	"testing"

	"github.com/ksan-net/ksan/internal/workload"
)

// naiveW computes W[i][j] straight from the definition.
func naiveW(d *workload.Demand, i, j int) int64 {
	var w int64
	for _, pc := range d.Pairs {
		inU := pc.Src >= i && pc.Src <= j
		inV := pc.Dst >= i && pc.Dst <= j
		if inU != inV {
			w += pc.Count
		}
	}
	return w
}

// bruteForceOptimal enumerates every routing-based k-ary search tree on
// [1..n] and returns the minimal total distance — an independent oracle for
// the DP on tiny instances. The enumeration mirrors the DP's recursive
// structure (root + left/right forests) but evaluates real trees.
func bruteForceOptimal(d *workload.Demand, k int) int64 {
	var bestTree func(i, j int) int64
	var bestForest func(i, j, t int) int64
	sc, err := newSegmentCosts(d)
	if err != nil {
		panic(err)
	}
	memoT := map[[2]int]int64{}
	memoF := map[[3]int]int64{}
	bestTree = func(i, j int) int64 {
		if i > j {
			return 0
		}
		if v, ok := memoT[[2]int{i, j}]; ok {
			return v
		}
		best := int64(inf)
		for r := i; r <= j; r++ {
			var v int64
			switch {
			case r == i && r == j:
				v = 0
			case r == i:
				v = bestForestUpTo(bestForest, r+1, j, k-1)
			case r == j:
				v = bestForestUpTo(bestForest, i, r-1, k-1)
			default:
				v = int64(inf)
				for dl := 1; dl <= k-1; dl++ {
					lv := bestForestUpTo(bestForest, i, r-1, dl)
					rv := bestForestUpTo(bestForest, r+1, j, k-dl)
					if lv+rv < v {
						v = lv + rv
					}
				}
			}
			if v < best {
				best = v
			}
		}
		best += sc.W(i, j)
		memoT[[2]int{i, j}] = best
		return best
	}
	bestForest = func(i, j, t int) int64 {
		if i > j {
			if t == 0 {
				return 0
			}
			return inf
		}
		if t == 0 {
			return inf
		}
		if t == 1 {
			return bestTree(i, j)
		}
		if v, ok := memoF[[3]int{i, j, t}]; ok {
			return v
		}
		best := int64(inf)
		for l := i; l <= j-t+1; l++ {
			v := bestTree(i, l) + bestForest(l+1, j, t-1)
			if v < best {
				best = v
			}
		}
		memoF[[3]int{i, j, t}] = best
		return best
	}
	return bestTree(1, d.N)
}

func bestForestUpTo(f func(i, j, t int) int64, i, j, maxT int) int64 {
	best := int64(inf)
	for t := 1; t <= maxT; t++ {
		if v := f(i, j, t); v < best {
			best = v
		}
	}
	if i > j {
		return 0
	}
	return best
}

func randomDemand(n int, density float64, seed int64) *workload.Demand {
	rng := rand.New(rand.NewSource(seed))
	d := &workload.Demand{N: n}
	for u := 1; u <= n; u++ {
		for v := 1; v <= n; v++ {
			if u != v && rng.Float64() < density {
				c := int64(1 + rng.Intn(9))
				d.Pairs = append(d.Pairs, workload.PairCount{Src: u, Dst: v, Count: c})
				d.Total += c
			}
		}
	}
	return d
}

func TestSegmentCostsMatchNaive(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		d := randomDemand(12, 0.4, seed)
		sc, err := newSegmentCosts(d)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 12; i++ {
			for j := i; j <= 12; j++ {
				if got, want := sc.W(i, j), naiveW(d, i, j); got != want {
					t.Fatalf("W[%d,%d]=%d want %d (seed %d)", i, j, got, want, seed)
				}
			}
		}
	}
}

func TestSegmentCostsWholeRangeZero(t *testing.T) {
	d := randomDemand(9, 0.5, 3)
	sc, _ := newSegmentCosts(d)
	if sc.W(1, 9) != 0 {
		t.Errorf("W[1,n]=%d, want 0 (no requests leave the whole id range)", sc.W(1, 9))
	}
}

func TestOptimalMatchesBruteForce(t *testing.T) {
	for _, k := range []int{2, 3, 4} {
		for _, n := range []int{2, 3, 4, 5, 6, 7} {
			for seed := int64(0); seed < 4; seed++ {
				d := randomDemand(n, 0.5, seed)
				if len(d.Pairs) == 0 {
					continue
				}
				tree, cost, err := Optimal(d, k)
				if err != nil {
					t.Fatalf("Optimal(n=%d,k=%d,seed=%d): %v", n, k, seed, err)
				}
				if err := tree.Validate(); err != nil {
					t.Fatalf("n=%d k=%d seed=%d: invalid tree: %v", n, k, seed, err)
				}
				if got := TotalDistance(tree, d); got != cost {
					t.Fatalf("n=%d k=%d seed=%d: reconstructed tree distance %d != DP cost %d",
						n, k, seed, got, cost)
				}
				if want := bruteForceOptimal(d, k); cost != want {
					t.Fatalf("n=%d k=%d seed=%d: DP cost %d != brute force %d", n, k, seed, cost, want)
				}
			}
		}
	}
}

func TestOptimalNeverWorseThanBaselines(t *testing.T) {
	for _, k := range []int{2, 3, 5} {
		for seed := int64(0); seed < 3; seed++ {
			tr := workload.Zipf(40, 3000, 1.2, seed)
			d := workload.DemandFromTrace(tr)
			opt, cost, err := Optimal(d, k)
			if err != nil {
				t.Fatal(err)
			}
			full, err := Full(40, k)
			if err != nil {
				t.Fatal(err)
			}
			if fullCost := TotalDistance(full, d); cost > fullCost {
				t.Errorf("k=%d seed=%d: optimal %d worse than full tree %d", k, seed, cost, fullCost)
			}
			cen, err := Centroid(40, k)
			if err != nil {
				t.Fatal(err)
			}
			if cenCost := TotalDistance(cen, d); cost > cenCost {
				t.Errorf("k=%d seed=%d: optimal %d worse than centroid %d", k, seed, cost, cenCost)
			}
			_ = opt
		}
	}
}

func TestOptimalImprovesWithK(t *testing.T) {
	tr := workload.Uniform(60, 4000, 1)
	d := workload.DemandFromTrace(tr)
	prev := int64(1 << 62)
	for _, k := range []int{2, 3, 5, 8} {
		_, cost, err := Optimal(d, k)
		if err != nil {
			t.Fatal(err)
		}
		if cost > prev {
			t.Errorf("k=%d optimal cost %d worse than smaller arity's %d", k, cost, prev)
		}
		prev = cost
	}
}

func TestOptimalSingleNode(t *testing.T) {
	d := &workload.Demand{N: 1}
	tree, cost, err := Optimal(d, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cost != 0 || tree.N() != 1 {
		t.Errorf("single-node optimum cost=%d n=%d", cost, tree.N())
	}
}

func TestOptimalHotPairAdjacent(t *testing.T) {
	// If one pair dominates the demand, the optimal tree must place it at
	// distance 1.
	d := &workload.Demand{N: 12}
	d.Pairs = append(d.Pairs, workload.PairCount{Src: 3, Dst: 9, Count: 1000})
	for u := 1; u <= 12; u++ {
		v := u%12 + 1
		if u == 3 && v == 9 {
			continue
		}
		if u != v {
			d.Pairs = append(d.Pairs, workload.PairCount{Src: u, Dst: v, Count: 1})
		}
	}
	tree, _, err := Optimal(d, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.DistanceID(3, 9); got != 1 {
		t.Errorf("dominant pair at distance %d, want 1", got)
	}
}

func TestOptimalRejectsHugeN(t *testing.T) {
	if _, _, err := Optimal(&workload.Demand{N: 5000}, 2); err == nil {
		t.Error("Optimal must refuse n beyond the cubic-DP limit")
	}
}

func TestOptimalRejectsBadK(t *testing.T) {
	if _, _, err := Optimal(&workload.Demand{N: 5}, 1); err == nil {
		t.Error("Optimal must refuse k<2")
	}
}

func TestOptimalParallelDeterministic(t *testing.T) {
	// The parallel fill must not introduce nondeterminism in the cost.
	d := randomDemand(30, 0.3, 42)
	_, c1, err := Optimal(d, 4)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		_, c2, err := Optimal(d, 4)
		if err != nil {
			t.Fatal(err)
		}
		if c1 != c2 {
			t.Fatalf("parallel DP nondeterministic: %d vs %d", c1, c2)
		}
	}
}

func TestWeightBalancedNearOptimal(t *testing.T) {
	// The Mehlhorn-style approximation must be valid, never beat the true
	// optimum, and stay within a modest factor of it on random demands.
	worst := 1.0
	for _, k := range []int{2, 3, 4} {
		for seed := int64(0); seed < 10; seed++ {
			n := 8 + int(seed)*3
			d := randomDemand(n, 0.35, seed)
			if len(d.Pairs) == 0 {
				continue
			}
			_, opt, err := Optimal(d, k)
			if err != nil {
				t.Fatal(err)
			}
			tree, approx, err := WeightBalanced(d, k)
			if err != nil {
				t.Fatal(err)
			}
			if err := tree.Validate(); err != nil {
				t.Fatalf("k=%d seed=%d: %v", k, seed, err)
			}
			if got := TotalDistance(tree, d); got != approx {
				t.Fatalf("k=%d seed=%d: tree distance %d != reported %d", k, seed, got, approx)
			}
			if approx < opt {
				t.Fatalf("k=%d seed=%d: approximation %d below the optimum %d", k, seed, approx, opt)
			}
			if r := float64(approx) / float64(opt); r > worst {
				worst = r
			}
		}
	}
	if worst > 2.0 {
		t.Errorf("weight-balanced approximation ratio reached %.2f, want ≤ 2 on random demands", worst)
	}
}

func TestWeightBalancedLargeInstance(t *testing.T) {
	// The approximation must handle sizes the cubic DP refuses.
	tr := workload.FacebookLike(8000, 20000, 1)
	d := workload.DemandFromTrace(tr)
	tree, cost, err := WeightBalanced(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if cost <= 0 {
		t.Error("approximation reported non-positive cost")
	}
	full, err := Full(8000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if fullCost := TotalDistance(full, d); cost > fullCost {
		t.Errorf("demand-aware approximation %d worse than the oblivious full tree %d", cost, fullCost)
	}
}

func TestWeightBalancedRejectsBadInput(t *testing.T) {
	if _, _, err := WeightBalanced(&workload.Demand{N: 4}, 1); err == nil {
		t.Error("WeightBalanced must refuse k<2")
	}
	if _, _, err := WeightBalanced(&workload.Demand{N: 0}, 2); err == nil {
		t.Error("WeightBalanced must refuse empty demand")
	}
}

func TestOptimalTreeIsRoutingBased(t *testing.T) {
	// Every node's own id must appear in its routing array (in cut space:
	// id·k among the thresholds), the defining property of routing-based
	// trees that the DP optimizes over.
	d := randomDemand(25, 0.4, 7)
	tree, _, err := Optimal(d, 3)
	if err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= 25; id++ {
		nd := tree.NodeByID(id)
		if nd.IsLeaf() {
			continue // leaves' pads make the id threshold unnecessary
		}
		found := false
		for _, th := range nd.RoutingArray() {
			if th == id*tree.Scale() {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("interior node %d does not carry its own id as a routing element", id)
		}
	}
}
