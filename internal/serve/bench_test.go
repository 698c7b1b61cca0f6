package serve

import (
	"context"
	"fmt"
	"testing"

	"github.com/ksan-net/ksan/internal/hist"
	"github.com/ksan-net/ksan/internal/policy"
	"github.com/ksan-net/ksan/internal/sim"
	"github.com/ksan-net/ksan/internal/workload"
)

// BenchmarkLoad measures end-to-end serving throughput over the shard
// grid the EXPERIMENTS.md table reports (clients = shards, frozen
// network, cheap deterministic trace so serve work dominates generation).
// One op = one full run over the stream; requests/sec is b.N-independent,
// so per-op time divided by the stream length is the serve-path cost.
func BenchmarkLoad(b *testing.B) {
	const n, m = 1024, 200_000
	for _, s := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("frozen/s=%d", s), func(b *testing.B) {
			gen := workload.SequentialGen(n, m)
			cfg := Config{Shards: s, Clients: s}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				stats, err := Run(context.Background(), cfg, mkFrozen, gen)
				if err != nil {
					b.Fatal(err)
				}
				if stats.Requests != m {
					b.Fatalf("served %d, want %d", stats.Requests, m)
				}
			}
			b.SetBytes(0)
			b.ReportMetric(float64(m)/(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1e9), "req/s")
		})
	}
	// The adjusting grid exercises the token path end to end.
	for _, s := range []int{1, 4} {
		b.Run(fmt.Sprintf("adjusting/s=%d", s), func(b *testing.B) {
			gen := workload.SequentialGen(n, m/4)
			cfg := Config{Shards: s, Clients: s}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(context.Background(), cfg, mkKary, gen); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// warmShardNet builds an n-node adjusting shard network and serves a
// deterministic request prefix into it, returning the network and its
// checkpoint surface.
func warmShardNet(b *testing.B, n, prefix int) (sim.Network, recoverable) {
	b.Helper()
	net, err := mkKary(n)
	if err != nil {
		b.Fatal(err)
	}
	for r, err := range workload.SequentialGen(n, prefix).Requests() {
		if err != nil {
			b.Fatal(err)
		}
		net.Serve(r.Src, r.Dst)
	}
	return net, net.(recoverable)
}

// BenchmarkCheckpoint is the token holder's cost of one periodic snapshot:
// CheckpointInto with a reused checkpoint, amortized over the interval.
// The enforced contract is zero allocations per op — the first snapshot
// grows the backing arrays, every later one reuses them, so a checkpoint
// never pressures the collector mid-run.
func BenchmarkCheckpoint(b *testing.B) {
	_, rec := warmShardNet(b, 1024, 10_000)
	var cp policy.Checkpoint
	if err := rec.CheckpointInto(&cp); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rec.CheckpointInto(&cp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecovery is the cost of one crash recovery: restore the last
// checkpoint and replay a full interval's log (the worst case — a crash
// just before the next checkpoint boundary). Restore rebuilds the tree
// from the snapshot, so this path allocates; it runs once per recovery,
// never per request.
func BenchmarkRecovery(b *testing.B) {
	const n = 1024
	net, rec := warmShardNet(b, n, 10_000)
	var cp policy.Checkpoint
	if err := rec.CheckpointInto(&cp); err != nil {
		b.Fatal(err)
	}
	wal := make([]sim.Request, DefaultCheckpointEvery)
	for i := range wal {
		wal[i] = sim.Request{Src: 1 + i%n, Dst: 1 + (i*7)%n}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rec.Restore(&cp); err != nil {
			b.Fatal(err)
		}
		for _, r := range wal {
			net.Serve(r.Src, r.Dst)
		}
	}
	b.ReportMetric(float64(len(wal)), "replayed/op")
}

// BenchmarkFaultedLoad is the end-to-end serving run with the fault
// machinery armed: "idle" measures the standing cost of the faulted serve
// path and periodic checkpoints with an empty schedule (the overhead a
// run pays just for being recoverable), "crash-recover" adds a scripted
// lossless crash per shard mid-run. Compare against
// BenchmarkLoad/adjusting for the disarmed baseline.
// TestRunAllocsConstantInRequests holds both paths' allocation profiles.
func BenchmarkFaultedLoad(b *testing.B) {
	const n, m = 1024, 50_000
	const shards = 4
	plans := []struct {
		name string
		plan func() *FaultPlan
	}{
		{"idle", func() *FaultPlan {
			return &FaultPlan{CheckpointEvery: 1024}
		}},
		{"crash-recover", func() *FaultPlan {
			p := &FaultPlan{CheckpointEvery: 1024}
			for s := 0; s < shards; s++ {
				p.Events = append(p.Events, FaultEvent{Shard: s, At: 5000, Kind: FaultCrash})
			}
			return p
		}},
	}
	for _, pc := range plans {
		b.Run(pc.name, func(b *testing.B) {
			gen := workload.SequentialGen(n, m)
			cfg := Config{Shards: shards, Clients: shards, Faults: pc.plan()}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				stats, err := Run(context.Background(), cfg, mkKary, gen)
				if err != nil {
					b.Fatal(err)
				}
				if stats.Requests != m {
					b.Fatalf("served %d, want %d", stats.Requests, m)
				}
			}
			b.ReportMetric(float64(m)/(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1e9), "req/s")
		})
	}
}

// BenchmarkHistObserve is the per-request measurement overhead: one
// Observe on the hot path.
func BenchmarkHistObserve(b *testing.B) {
	var h hist.Hist
	h.Observe(0xfffff) // pre-grow the bucket array
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i) & 0xfffff)
	}
}

// BenchmarkHistMerge is the end-of-run cost of folding one client
// histogram into the aggregate.
func BenchmarkHistMerge(b *testing.B) {
	var src hist.Hist
	for v := int64(0); v < 1<<20; v += 97 {
		src.Observe(v)
	}
	var dst hist.Hist
	dst.Merge(&src) // pre-grow so the measured loop is allocation-free
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.Merge(&src)
	}
}

func BenchmarkHistPercentile(b *testing.B) {
	var h hist.Hist
	for v := int64(0); v < 1<<20; v += 13 {
		h.Observe(v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.Percentile(0.99)
	}
}

// BenchmarkRoute is the router's per-request cost (must stay
// allocation-free: the hot path calls it once per request).
func BenchmarkRoute(b *testing.B) {
	p, err := NewPartition(1024, 8)
	if err != nil {
		b.Fatal(err)
	}
	var r Route
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := 1 + i%1024
		v := 1 + (i*7)%1024
		p.Route(u, v, &r)
	}
}
