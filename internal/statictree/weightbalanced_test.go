package statictree

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/ksan-net/ksan/internal/core"
	"github.com/ksan-net/ksan/internal/workload"
)

// refWeightBalanced is the spec-building WeightBalanced that the arena
// writer replaced: one heap Spec, threshold slice and child slice per
// node, and one parts slice per split, materialized by core.Build. It is
// kept as the test oracle the writer must match tree for tree.
func refWeightBalanced(d *workload.Demand, k int) (*core.Tree, error) {
	weight := make([]int64, d.N+1)
	for _, pc := range d.Pairs {
		weight[pc.Src] += pc.Count
		weight[pc.Dst] += pc.Count
	}
	return refWeightBalancedWeights(weight, k)
}

// refWeightBalancedWeights is refWeightBalanced on point weights:
// weight[x] for the nodes x in 1..len(weight)−1, weight[0] ignored.
func refWeightBalancedWeights(weight []int64, k int) (*core.Tree, error) {
	n := len(weight) - 1
	prefix := make([]int64, n+2)
	for x := 1; x <= n; x++ {
		prefix[x] = prefix[x-1] + weight[x] + 1
	}
	wsum := func(i, j int) int64 {
		if i > j {
			return 0
		}
		return prefix[j] - prefix[i-1]
	}
	var build func(i, j int) *core.Spec
	build = func(i, j int) *core.Spec {
		if i > j {
			return nil
		}
		if i == j {
			return &core.Spec{ID: i}
		}
		half := wsum(i, j) / 2
		r := i
		for r < j && wsum(i, r) < half {
			r++
		}
		spec := &core.Spec{ID: r}
		leftN, rightN := r-i, j-r
		dl, dr := 0, 0
		switch {
		case leftN == 0 && rightN == 0:
		case leftN == 0:
			dr = minInt(k-1, rightN)
		case rightN == 0:
			dl = minInt(k-1, leftN)
		default:
			lw, rw := wsum(i, r-1), wsum(r+1, j)
			dl = int(int64(k) * lw / (lw + rw))
			dl = clampInt(dl, 1, k-1)
			dl = minInt(dl, leftN)
			dr = minInt(k-dl, rightN)
		}
		if dl > 0 {
			parts := refWeightParts(i, r-1, dl, wsum)
			for idx, part := range parts {
				spec.Children = append(spec.Children, build(part[0], part[1]))
				if idx < len(parts)-1 {
					spec.Thresholds = append(spec.Thresholds, part[1])
				} else {
					spec.Thresholds = append(spec.Thresholds, r)
				}
			}
		} else if dr > 0 {
			spec.Thresholds = append(spec.Thresholds, r)
			spec.Children = append(spec.Children, nil)
		}
		if dr > 0 {
			parts := refWeightParts(r+1, j, dr, wsum)
			for idx, part := range parts {
				spec.Children = append(spec.Children, build(part[0], part[1]))
				if idx < len(parts)-1 {
					spec.Thresholds = append(spec.Thresholds, part[1])
				}
			}
		} else if dl > 0 {
			spec.Children = append(spec.Children, nil)
		}
		return spec
	}
	return core.Build(k, build(1, n))
}

// refWeightParts splits [i,j] into t contiguous non-empty parts of
// near-equal weight.
func refWeightParts(i, j, t int, wsum func(a, b int) int64) [][2]int {
	parts := make([][2]int, 0, t)
	start := i
	for p := 1; p <= t; p++ {
		remainingParts := t - p
		end := start
		if p < t {
			target := wsum(start, j) / int64(remainingParts+1)
			for end < j-remainingParts && wsum(start, end) < target {
				end++
			}
		} else {
			end = j
		}
		parts = append(parts, [2]int{start, end})
		start = end + 1
	}
	return parts
}

// wbDemands returns the demand shapes the weight-balanced tests sweep at
// node count n: uniform, zipf and hotspot traffic (n ≥ 2 only), a single
// pair, and no traffic at all.
func wbDemands(n int) map[string]*workload.Demand {
	ds := map[string]*workload.Demand{
		"single-pair": {N: n, Pairs: []workload.PairCount{{Src: 1, Dst: n, Count: 5}}, Total: 5},
		"empty":       {N: n},
	}
	if n >= 2 {
		m := 20 * n
		ds["uniform"] = workload.DemandFromTrace(workload.Uniform(n, m, 1))
		ds["zipf"] = workload.DemandFromTrace(workload.Zipf(n, m, 1.1, 2))
		hot := max(0.1, 1.5/float64(n))
		ds["hotspot"] = workload.DemandFromTrace(workload.MustCollect(workload.HotspotGen(n, m, hot, 0.9, 3)))
	}
	return ds
}

func TestWeightBalancedMatchesReference(t *testing.T) {
	for _, n := range []int{1, 2, 3, 17, 255, 4095} {
		for name, d := range wbDemands(n) {
			for _, k := range []int{2, 3, 4, 8, 32} {
				got, cost, err := WeightBalanced(d, k)
				if err != nil {
					t.Fatalf("n=%d k=%d %s: %v", n, k, name, err)
				}
				want, err := refWeightBalanced(d, k)
				if err != nil {
					t.Fatalf("n=%d k=%d %s: reference: %v", n, k, name, err)
				}
				if !reflect.DeepEqual(got.Snapshot(), want.Snapshot()) {
					t.Fatalf("n=%d k=%d %s: written tree differs from the reference", n, k, name)
				}
				if ref := TotalDistance(want, d); cost != ref {
					t.Fatalf("n=%d k=%d %s: cost %d, reference tree costs %d", n, k, name, cost, ref)
				}
			}
		}
	}
}

// TestWeightBalancerReuse drives one WeightBalancer through builds that
// shrink, grow and change arity. Every tree must equal the reference's,
// so nothing of an earlier build — a leaf's former children, a wider
// node's thresholds, stale prefix weights — leaks into a later one.
func TestWeightBalancerReuse(t *testing.T) {
	var b WeightBalancer
	for _, n := range []int{4095, 17, 255, 1, 3, 2, 4095} {
		ds := wbDemands(n)
		for _, name := range slices.Sorted(maps.Keys(ds)) {
			d := ds[name]
			for _, k := range []int{32, 2, 4, 3, 8} {
				got, cost, err := b.Build(d, k)
				if err != nil {
					t.Fatalf("n=%d k=%d %s: %v", n, k, name, err)
				}
				want, err := refWeightBalanced(d, k)
				if err != nil {
					t.Fatalf("n=%d k=%d %s: reference: %v", n, k, name, err)
				}
				if !reflect.DeepEqual(got.Snapshot(), want.Snapshot()) {
					t.Fatalf("n=%d k=%d %s: reused builder's tree differs from the reference", n, k, name)
				}
				if ref := TotalDistance(want, d); cost != ref {
					t.Fatalf("n=%d k=%d %s: cost %d, reference tree costs %d", n, k, name, cost, ref)
				}
			}
		}
	}
}

// FuzzWeightBalancer fuzzes the weight-balanced writer against the Spec
// path: n = 1 + nRaw mod 2048 nodes, arity k = 2 + kRaw mod 64, and node
// x's point weight from byte x−1 of weights (cycled; none when empty),
// its low five bits times 8 to the power of its top three, so that
// weights from 0 to about 6.5·10⁷ mix. BuildWeights into a new arena and
// into a spare one that a splayed, edge-tracking tree still holds must
// both write refWeightBalanced's tree, and it must validate.
func FuzzWeightBalancer(f *testing.F) {
	f.Fuzz(func(t *testing.T, nRaw uint16, kRaw uint8, weights []byte) {
		n, k := 1+int(nRaw)%2048, 2+int(kRaw)%64
		w := make([]int64, n+1)
		for x := 1; x <= n && len(weights) > 0; x++ {
			c := weights[(x-1)%len(weights)]
			w[x] = int64(c&31) << (3 * (c >> 5))
		}
		want, err := refWeightBalancedWeights(w, k)
		if err != nil {
			t.Fatalf("n=%d k=%d: reference: %v", n, k, err)
		}
		spare, err := core.NewRandom(n, k, int64(nRaw))
		if err != nil {
			t.Fatal(err)
		}
		spare.SetTrackEdges(true)
		spare.SetBlockPolicy(core.BlockLeftmost)
		for id := 1; id <= n; id += 3 {
			spare.SplayUntilParent(spare.NodeByID(id), nil)
		}
		var b WeightBalancer
		for _, dst := range []*core.Tree{nil, spare} {
			got, err := b.BuildWeights(dst, slices.Clone(w), k)
			if err != nil {
				t.Fatalf("n=%d k=%d spare=%v: %v", n, k, dst != nil, err)
			}
			if dst != nil && (got != dst || got.Rotations() != 0 || got.EdgeChanges() != 0) {
				t.Fatalf("n=%d k=%d: the spare arena was not reset and reused", n, k)
			}
			if !reflect.DeepEqual(got.Snapshot(), want.Snapshot()) {
				t.Fatalf("n=%d k=%d spare=%v: written tree differs from the reference", n, k, dst != nil)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("n=%d k=%d spare=%v: %v", n, k, dst != nil, err)
			}
		}
	})
}

// TestWeightBalancerReuseAllocatesOnlyTheTree pins what the reuse buys:
// once a builder's scratch has grown, a build of the same size allocates
// exactly what a new arena of that size allocates, and none of the
// scratch.
func TestWeightBalancerReuseAllocatesOnlyTheTree(t *testing.T) {
	const n, k = 4095, 4
	d := wbDemands(n)["hotspot"]
	var b WeightBalancer
	reused := testing.AllocsPerRun(5, func() {
		if _, _, err := b.Build(d, k); err != nil {
			t.Fatal(err)
		}
	})
	arena := testing.AllocsPerRun(5, func() {
		if _, _, err := core.Arena(nil, n, k); err != nil {
			t.Fatal(err)
		}
	})
	if reused != arena {
		t.Errorf("a reused builder made %.0f allocs per build; a new arena alone makes %.0f", reused, arena)
	}
}

// TestWeightBalancedAllocsConstantInN pins the writer's allocation
// contract: a fixed set of scratch and arena slices, the same count at
// any node count — a rebuild's garbage does not grow with the tree.
func TestWeightBalancedAllocsConstantInN(t *testing.T) {
	for _, k := range []int{2, 4, 32} {
		var allocs [2]float64
		for i, n := range []int{255, 4095} {
			d := wbDemands(n)["hotspot"]
			allocs[i] = testing.AllocsPerRun(5, func() {
				if _, _, err := WeightBalanced(d, k); err != nil {
					t.Fatal(err)
				}
			})
		}
		if allocs[0] != allocs[1] {
			t.Errorf("k=%d: WeightBalanced made %.0f allocs at n=255 but %.0f at n=4095, want the same count",
				k, allocs[0], allocs[1])
		}
	}
}

// TestDemandIDsOutsideNodesRejected: a pair naming an id outside 1..N is
// an error at both demand-taking entry points, never an index panic
// (WeightBalanced) or a silently wrong cost (the solver's prefix matrix
// would file it under another row).
func TestDemandIDsOutsideNodesRejected(t *testing.T) {
	const n = 6
	entry := map[string]func(d *workload.Demand) error{
		"WeightBalanced": func(d *workload.Demand) error {
			_, _, err := WeightBalanced(d, 3)
			return err
		},
		"NewSolver": func(d *workload.Demand) error {
			_, err := NewSolver(d)
			return err
		},
	}
	for name, call := range entry {
		for _, bad := range []int{0, -1, n + 1} {
			for _, pc := range []workload.PairCount{{Src: bad, Dst: 2, Count: 1}, {Src: 2, Dst: bad, Count: 1}} {
				d := &workload.Demand{N: n, Pairs: []workload.PairCount{{Src: 1, Dst: 3, Count: 4}, pc}, Total: 5}
				err := call(d)
				if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("outside nodes 1..%d", n)) {
					t.Errorf("%s on pair %d→%d: error %v, want an out-of-range rejection", name, pc.Src, pc.Dst, err)
				}
			}
		}
	}
}
