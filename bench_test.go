package ksan

// One benchmark per table and figure of the paper's evaluation, exercising
// the workload and network configuration that regenerates it (the full
// tables themselves come from cmd/ksanbench; these measure the underlying
// serve/build operations at a fixed small scale so regressions are visible
// in ns/op).

import (
	"context"
	"fmt"
	"testing"

	"github.com/ksan-net/ksan/internal/experiments"
)

// benchServe measures serving a prepared trace on a freshly built network,
// cycling through the trace.
func benchServe(b *testing.B, mk func() Network, tr Trace) {
	b.Helper()
	net := mk()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rq := tr.Reqs[i%len(tr.Reqs)]
		net.Serve(rq.Src, rq.Dst)
	}
}

// --- The sequential serve path (the throughput ceiling of the whole
// evaluation: the determinism contract forbids sharding self-adjusting
// networks, so ns/Serve is what bounds requests/sec). EXPERIMENTS.md
// records their history; the TestServeZeroAllocs* tests in alloc_test.go
// hold these networks at 0 allocs/op. ---

func BenchmarkServeKAryTemporal(b *testing.B) {
	tr := TemporalWorkload(255, 20000, 0.75, 1)
	benchServe(b, func() Network { n, _ := NewKArySplayNet(255, 3); return n }, tr)
}

// BenchmarkServeKAryGrid sweeps the serve path across the arity axis the
// paper generalizes over, on both trace families: exactly the grid where
// the per-hop routing constant (the threshold search at every visited
// node) turns from noise into the dominant term as k grows and trees
// flatten.
func BenchmarkServeKAryGrid(b *testing.B) {
	for _, tc := range []struct {
		name string
		tr   Trace
	}{
		{"uniform", UniformWorkload(1023, 20000, 2)},
		{"temporal", TemporalWorkload(1023, 20000, 0.75, 1)},
	} {
		for _, k := range []int{2, 5, 8, 16, 32} {
			b.Run(fmt.Sprintf("%s/k=%d", tc.name, k), func(b *testing.B) {
				benchServe(b, func() Network { n, _ := NewKArySplayNet(1023, k); return n }, tc.tr)
			})
		}
	}
}

func BenchmarkServeCentroidTemporal(b *testing.B) {
	tr := TemporalWorkload(255, 20000, 0.75, 1)
	benchServe(b, func() Network { n, _ := NewCentroidSplayNet(255, 2); return n }, tr)
}

func BenchmarkServeSplayNetTemporal(b *testing.B) {
	tr := TemporalWorkload(255, 20000, 0.75, 1)
	benchServe(b, func() Network { n, _ := NewSplayNet(255); return n }, tr)
}

// --- The policy plane: one benchmark per composition family, pinning
// the serve cost of each trigger × adjuster point on the same workload
// and topology. The deferred-trigger rows (alpha-splay, frozen-*, lazy)
// are where the static-stretch Euler-tour/RMQ oracle engages; their
// ns/op against the walk-based history is tracked in EXPERIMENTS.md, and
// TestServeZeroAllocsPolicyCompositions holds them at 0 allocs/op. ---

func BenchmarkPolicyServe(b *testing.B) {
	tr := TemporalWorkload(1023, 20000, 0.75, 1)
	compose := func(trig func() PolicyTrigger, adj func() PolicyAdjuster) func() Network {
		return func() Network {
			tree, err := NewBalancedTree(1023, 4)
			if err != nil {
				b.Fatal(err)
			}
			net, err := NewPolicyNet("bench", tree, trig(), adj())
			if err != nil {
				b.Fatal(err)
			}
			return net
		}
	}
	for _, tc := range []struct {
		name string
		mk   func() Network
	}{
		{"kary-always-splay", compose(TriggerAlways, AdjusterSplay)},
		{"kary-every4-semisplay", compose(func() PolicyTrigger { return TriggerEveryM(4) }, AdjusterSemiSplay)},
		{"kary-alpha-splay", compose(func() PolicyTrigger { return TriggerAlpha(200_000) }, AdjusterSplay)},
		{"frozen-after-warmup", compose(func() PolicyTrigger { return TriggerFirst(2000) }, AdjusterSplay)},
		{"frozen-never", compose(TriggerNever, AdjusterNone)},
		{"lazy-alpha-rebuild", func() Network {
			n, err := NewLazyNet(1023, 4, 200_000)
			if err != nil {
				b.Fatal(err)
			}
			return n
		}},
	} {
		b.Run(tc.name, func(b *testing.B) { benchServe(b, tc.mk, tr) })
	}
}

// --- Tables 1–7: k-ary SplayNet on each workload (k=3 representative) ---

func BenchmarkTable1HPCKAry(b *testing.B) {
	tr := HPCWorkload(128, 20000, 1)
	benchServe(b, func() Network { n, _ := NewKArySplayNet(128, 3); return n }, tr)
}

func BenchmarkTable2ProjecToRKAry(b *testing.B) {
	tr := ProjecToRWorkload(100, 20000, 1)
	benchServe(b, func() Network { n, _ := NewKArySplayNet(100, 3); return n }, tr)
}

func BenchmarkTable3FacebookKAry(b *testing.B) {
	tr := FacebookWorkload(2048, 20000, 1)
	benchServe(b, func() Network { n, _ := NewKArySplayNet(2048, 3); return n }, tr)
}

func BenchmarkTable4Temporal025(b *testing.B) {
	tr := TemporalWorkload(255, 20000, 0.25, 1)
	benchServe(b, func() Network { n, _ := NewKArySplayNet(255, 3); return n }, tr)
}

func BenchmarkTable5Temporal050(b *testing.B) {
	tr := TemporalWorkload(255, 20000, 0.5, 1)
	benchServe(b, func() Network { n, _ := NewKArySplayNet(255, 3); return n }, tr)
}

func BenchmarkTable6Temporal075(b *testing.B) {
	tr := TemporalWorkload(255, 20000, 0.75, 1)
	benchServe(b, func() Network { n, _ := NewKArySplayNet(255, 3); return n }, tr)
}

func BenchmarkTable7Temporal090(b *testing.B) {
	tr := TemporalWorkload(255, 20000, 0.9, 1)
	benchServe(b, func() Network { n, _ := NewKArySplayNet(255, 3); return n }, tr)
}

// --- Table 8: the centroid heuristic case study (k=2) ---

func BenchmarkTable8CentroidServe(b *testing.B) {
	tr := TemporalWorkload(255, 20000, 0.5, 1)
	benchServe(b, func() Network { n, _ := NewCentroidSplayNet(255, 2); return n }, tr)
}

func BenchmarkTable8SplayNetBaseline(b *testing.B) {
	tr := TemporalWorkload(255, 20000, 0.5, 1)
	benchServe(b, func() Network { n, _ := NewSplayNet(255); return n }, tr)
}

func BenchmarkTable8OptimalBSTBuild(b *testing.B) {
	d := DemandFromTrace(ProjecToRWorkload(64, 20000, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := OptimalStaticTree(d, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figures 1, 3–6: node layout and the rotation operations ---

func BenchmarkFigRotationsKSplay(b *testing.B) {
	net, _ := NewKArySplayNet(1023, 5)
	tr := UniformWorkload(1023, 4096, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rq := tr.Reqs[i%len(tr.Reqs)]
		net.Serve(rq.Src, rq.Dst) // each serve is a sequence of k-splay steps
	}
}

// --- Figures 2/9 and 7/8: centroid structures ---

func BenchmarkFigCentroidTreeBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := CentroidTree(1000, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigCentroidNetBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := NewCentroidSplayNet(1000, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Remark 10: uniform-workload optimality of the centroid tree ---

func BenchmarkRemark10UniformDP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := OptimalUniformTree(512, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Lemma 9: total-distance scaling of full and centroid trees ---

func BenchmarkLemma9TotalDistance(b *testing.B) {
	tr, _ := FullTree(4096, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TotalDistanceUniform(tr)
	}
}

// --- Theorem 13: entropy bound evaluation ---

func BenchmarkEntropyBound(b *testing.B) {
	tr := TemporalWorkload(1023, 50000, 0.5, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EntropyBound(tr)
	}
}

// --- Core DP (Theorem 2) at a fixed size, for regression tracking ---

func BenchmarkOptimalDPCubic(b *testing.B) {
	d := DemandFromTrace(ZipfWorkload(96, 20000, 1.2, 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := OptimalStaticTree(d, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// --- whole-table regeneration at quick scale (the real harness path) ---

func BenchmarkTableRegeneration(b *testing.B) {
	sc := experiments.Quick
	tr := ProjecToRWorkload(sc.ProjNodes, sc.Requests, sc.Seed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.KAryTableCtx(context.Background(), NewEngine(), "bench", tr, sc); err != nil {
			b.Fatal(err)
		}
	}
}
