package statictree

import (
	"fmt"
	"testing"

	"github.com/ksan-net/ksan/internal/workload"
)

// benchDemand builds a deterministic Zipf demand at size n (the skew makes
// segment costs uneven, so the scheduler's load balancing is exercised).
func benchDemand(n int) *workload.Demand {
	return workload.DemandFromTrace(workload.Zipf(n, 20*n, 1.2, 7))
}

// BenchmarkOptimal is the perf-trajectory grid: one cubic-DP solve per
// (n, k), plus the offline workload's solve (the projector row: the demand
// of the first 10⁶ requests of a 511-node projector trace, seed 1, solved
// at k = 4 as perfbench's offline-opt-projector-k4 does at set-up).
// EXPERIMENTS.md records its history.
func BenchmarkOptimal(b *testing.B) {
	run := func(name string, d *workload.Demand, k int) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := Optimal(d, k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, n := range []int{64, 128, 256, 512} {
		d := benchDemand(n)
		for _, k := range []int{2, 4, 8} {
			run(fmt.Sprintf("n=%d/k=%d", n, k), d, k)
		}
	}
	run("projector/n=511/k=4", workload.DemandFromTrace(workload.ProjecToRLike(511, 1_000_000, 1)), 4)
}

// BenchmarkUniformOptimal is one uniform-workload solve per (n, k);
// n = 4095, k = 4 is the initial tree of perfbench's lazy-hotspot-faulted.
// The k = 32 rows are where stopping each forest search at the smallest
// tree's bound removes the most work.
func BenchmarkUniformOptimal(b *testing.B) {
	for _, n := range []int{1023, 4095} {
		for _, k := range []int{2, 4, 8, 32} {
			b.Run(fmt.Sprintf("n=%d/k=%d", n, k), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := OptimalUniform(n, k); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSolverSweep measures the Tables 1–7 consumption pattern: one
// Solver answering the whole k=2..10 sweep for a single demand, sharing
// the boundary-traffic matrix and DP scratch across arities.
func BenchmarkSolverSweep(b *testing.B) {
	d := benchDemand(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewSolver(d)
		if err != nil {
			b.Fatal(err)
		}
		for k := 2; k <= 10; k++ {
			if _, _, err := s.Optimal(k); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkOptimalExhaustive times the exhaustive reference fill of
// layoutref_test.go (every root of every segment evaluated, on one
// goroutine) on BenchmarkOptimal's n=256/k=8 demand, so its -cpu 1 row
// shows how much the admissible-bound pruning buys.
func BenchmarkOptimalExhaustive(b *testing.B) {
	d := benchDemand(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := exhaustiveSolver(b, d).Optimal(8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSegmentCosts isolates the O(n²) boundary-traffic matrix build
// that every solve shares.
func BenchmarkSegmentCosts(b *testing.B) {
	d := benchDemand(512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := newSegmentCosts(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWeightBalanced is one rebuild of a lazy net serving hotspot
// traffic: a 4-ary weight-balanced tree on 4095 nodes for a window of
// 2300 requests (about what an alpha trigger at 20 000 lets through).
func BenchmarkWeightBalanced(b *testing.B) {
	d := workload.DemandFromTrace(workload.MustCollect(workload.HotspotGen(4095, 2300, 0.1, 0.9, 1)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := WeightBalanced(d, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWeightBalancerReused is BenchmarkWeightBalanced on one reused
// builder, the lazy net's rebuild pattern: only the tree is allocated.
func BenchmarkWeightBalancerReused(b *testing.B) {
	d := workload.DemandFromTrace(workload.MustCollect(workload.HotspotGen(4095, 2300, 0.1, 0.9, 1)))
	var wb WeightBalancer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := wb.Build(d, 4); err != nil {
			b.Fatal(err)
		}
	}
}
