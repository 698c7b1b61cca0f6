package ksan

// Allocation regression tests for the sequential serve path. The engine's
// determinism contract serves every self-adjusting network strictly
// sequentially, so per-request constant factors — and in particular
// per-request allocations — bound the throughput of the whole evaluation.
// These tests pin the invariant that Serve performs zero steady-state
// allocations on every self-adjusting design: the generalized rotation
// recycles each node's routing-array and child-slot capacity (construction
// pads both to exactly k−1 and k entries, and rotations preserve that), the
// fragment expansion reuses per-tree scratch buffers, and the splay loops
// build no per-step slices.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
)

// assertServeZeroAllocs drives the network through the whole trace once
// (letting the per-tree scratch buffers reach their steady-state capacity)
// and then asserts that continuing to serve the trace allocates nothing.
func assertServeZeroAllocs(t *testing.T, net Network, tr Trace) {
	t.Helper()
	i := 0
	serve := func() {
		rq := tr.Reqs[i%len(tr.Reqs)]
		i++
		net.Serve(rq.Src, rq.Dst)
	}
	for range tr.Reqs {
		serve()
	}
	if avg := testing.AllocsPerRun(2000, serve); avg != 0 {
		t.Errorf("%s: %.2f allocs per steady-state Serve, want 0", net.Name(), avg)
	}
}

// assertKAryServeZeroAllocs runs assertServeZeroAllocs for each arity on
// both trace families BenchmarkServeKAryGrid measures (its n=1023 traces),
// one subtest per <trace>/k=<k>.
func assertKAryServeZeroAllocs(t *testing.T, ks []int) {
	t.Helper()
	for _, tc := range []struct {
		name string
		tr   Trace
	}{
		{"uniform", UniformWorkload(1023, 20000, 2)},
		{"temporal", TemporalWorkload(1023, 20000, 0.75, 1)},
	} {
		for _, k := range ks {
			t.Run(fmt.Sprintf("%s/k=%d", tc.name, k), func(t *testing.T) {
				net, err := NewKArySplayNet(1023, k)
				if err != nil {
					t.Fatal(err)
				}
				assertServeZeroAllocs(t, net, tc.tr)
			})
		}
	}
}

// TestServeZeroAllocsKAry and TestServeZeroAllocsKAryLarge pin the
// contract across the arity axis BenchmarkServeKAryGrid measures. A serve
// searches thresholds only in the d=2/d=3 rebuild merges (2(k−1) and
// 3(k−1) of them), and these arities select every kernel that does so —
// slot2, slot3, slot4, slot6, SWAR and bisect, up to 93 thresholds — while
// the rebuilds move spans through both of mov's forms. The kernel
// dispatch is selected once at construction and the rebuild scratch is
// preallocated, so no arity may add a per-request allocation.
func TestServeZeroAllocsKAry(t *testing.T) {
	assertKAryServeZeroAllocs(t, []int{2, 3, 5, 7})
}

// TestServeZeroAllocsKAryLarge covers the wide arities, where the bisect
// kernel and memmove-backed span moves carry the serve path.
func TestServeZeroAllocsKAryLarge(t *testing.T) {
	assertKAryServeZeroAllocs(t, []int{8, 16, 32})
}

// TestServeZeroAllocsKAryLinkChurn pins the same contract with link-churn
// accounting on: an engine run with WithLinkChurn(true) switches the
// net's edge tracking on, and a tracked rebuild notes the links it can
// cut in a per-tree buffer allocated when tracking was switched on.
func TestServeZeroAllocsKAryLinkChurn(t *testing.T) {
	tr := TemporalWorkload(1023, 20000, 0.75, 1)
	for _, k := range []int{2, 4, 8, 32} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			net, err := NewKArySplayNet(1023, k)
			if err != nil {
				t.Fatal(err)
			}
			res, err := NewEngine(WithLinkChurn(true)).Run(context.Background(), net, tr.Reqs[:100])
			if err != nil {
				t.Fatal(err)
			}
			if res.LinkChurn == 0 {
				t.Fatal("the engine run counted no link churn; tracking is off and the test is vacuous")
			}
			assertServeZeroAllocs(t, net, tr)
		})
	}
}

func TestServeZeroAllocsKArySemiSplayOnly(t *testing.T) {
	tr := TemporalWorkload(255, 10000, 0.5, 2)
	tree, err := NewBalancedTree(255, 3)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewPolicyNet("3-ary semi-splay", tree, TriggerAlways(), AdjusterSemiSplay())
	if err != nil {
		t.Fatal(err)
	}
	assertServeZeroAllocs(t, net, tr)
}

// TestServeZeroAllocsPolicyCompositions pins the zero-allocation serve
// contract across the policy plane's splay-family compositions: deferred
// triggers (periodic, cost-threshold, frozen-after-warmup) must not cost
// allocations either — the trigger state is plain counters, the
// adjustment context is recycled, and the static-stretch oracle is built
// at most once per stretch (inside the warmup pass below, so the steady
// state is clean).
func TestServeZeroAllocsPolicyCompositions(t *testing.T) {
	tr := TemporalWorkload(255, 10000, 0.75, 3)
	for _, tc := range []struct {
		label string
		trig  func() PolicyTrigger
		adj   func() PolicyAdjuster
	}{
		{"every(4)×splay", func() PolicyTrigger { return TriggerEveryM(4) }, AdjusterSplay},
		{"every(4)×semi-splay", func() PolicyTrigger { return TriggerEveryM(4) }, AdjusterSemiSplay},
		{"alpha(5000)×splay", func() PolicyTrigger { return TriggerAlpha(5000) }, AdjusterSplay},
		{"first(500)×splay", func() PolicyTrigger { return TriggerFirst(500) }, AdjusterSplay},
		{"never×none", TriggerNever, AdjusterNone},
	} {
		tree, err := NewBalancedTree(255, 4)
		if err != nil {
			t.Fatal(err)
		}
		net, err := NewPolicyNet(tc.label, tree, tc.trig(), tc.adj())
		if err != nil {
			t.Fatal(err)
		}
		assertServeZeroAllocs(t, net, tr)
	}
}

func TestServeZeroAllocsCentroid(t *testing.T) {
	tr := TemporalWorkload(255, 10000, 0.75, 1)
	net, err := NewCentroidSplayNet(255, 2)
	if err != nil {
		t.Fatal(err)
	}
	assertServeZeroAllocs(t, net, tr)
}

func TestServeZeroAllocsSplayNet(t *testing.T) {
	tr := TemporalWorkload(255, 10000, 0.75, 1)
	net, err := NewSplayNet(255)
	if err != nil {
		t.Fatal(err)
	}
	assertServeZeroAllocs(t, net, tr)
}

// TestRoutePathZeroAllocs pins RoutePath's scratch-buffer contract: after
// one warm pass (during which the per-tree route buffer grows to the
// longest path seen), repeatedly materializing routing paths allocates
// nothing. Splays run between calls so the paths exercised keep changing
// shape under the same buffer.
func TestRoutePathZeroAllocs(t *testing.T) {
	for _, k := range []int{2, 8, 32} {
		tree, err := NewBalancedTree(255, k)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(k)))
		step := func() {
			u, v := 1+rng.Intn(255), 1+rng.Intn(255)
			if u == v {
				return
			}
			p := tree.RoutePath(u, v)
			if p[0] != u || p[len(p)-1] != v {
				t.Fatalf("k=%d: RoutePath(%d,%d) = %v", k, u, v, p)
			}
			a, b := tree.NodeByID(u), tree.NodeByID(v)
			_, w := tree.DistanceLCA(a, b)
			tree.SplayUntilParent(a, w.Parent())
		}
		for i := 0; i < 2000; i++ {
			step()
		}
		if avg := testing.AllocsPerRun(2000, step); avg != 0 {
			t.Errorf("k=%d: %.2f allocs per steady-state RoutePath, want 0", k, avg)
		}
	}
}

// TestRebuildPathZeroAllocs pins the contract one layer below Serve: the
// arena rebuilds themselves (the index-surgery k-splay/k-semi-splay steps
// plus the LCA walks that steer them) allocate nothing. The merge scratch
// is preallocated at the d=3 maximum when the arena is built, so unlike
// the network-level tests above this holds from the very first rotation.
// k=16 and k=32 cover the bisect merges and the memmove span moves.
func TestRebuildPathZeroAllocs(t *testing.T) {
	for _, k := range []int{2, 3, 5, 16, 32} {
		tree, err := NewBalancedTree(255, k)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(k)))
		splay := func() {
			u, v := 1+rng.Intn(255), 1+rng.Intn(255)
			if u == v {
				return
			}
			a, b := tree.NodeByID(u), tree.NodeByID(v)
			_, w := tree.DistanceLCA(a, b)
			tree.SplayUntilParent(a, w.Parent())
			tree.SplayUntilParent(b, a)
		}
		if avg := testing.AllocsPerRun(2000, splay); avg != 0 {
			t.Errorf("k=%d: %.2f allocs per rebuild-path operation, want 0", k, avg)
		}
	}
}
