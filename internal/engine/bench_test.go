package engine

import (
	"context"
	"runtime"
	"testing"

	"github.com/ksan-net/ksan/internal/policy"
	"github.com/ksan-net/ksan/internal/sim"
	"github.com/ksan-net/ksan/internal/statictree"
	"github.com/ksan-net/ksan/internal/workload"
)

// These benchmarks back the engine's headline claim: evaluating a static
// tree's routing cost over a trace (the TotalDistance-style measurement of
// the scale experiments) through the sim.BatchServer path must beat the
// per-request Serve loop by ≥2× wall-clock. The batch path wins twice —
// the Euler-tour/RMQ distance oracle replaces three pointer walks per
// request even on one core, and the chunked trace shards across the
// worker pool on multicore machines.

func benchTrace(b *testing.B) (*policy.Net, []sim.Request) {
	b.Helper()
	tr, err := statictree.Full(1023, 3)
	if err != nil {
		b.Fatal(err)
	}
	return frozen("full", tr), workload.Uniform(1023, 200_000, 1).Reqs
}

// BenchmarkStaticTraceSequential is the baseline: the seed-style
// per-request Serve loop (ServeBatch hidden behind a plain wrapper).
func BenchmarkStaticTraceSequential(b *testing.B) {
	net, rs := benchTrace(b)
	eng := New()
	wrapped := &serveOnly{net: net}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(context.Background(), wrapped, rs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStaticTraceBatch1 isolates the batch kernel: one worker, so any
// speedup over Sequential is the distance oracle alone.
func BenchmarkStaticTraceBatch1(b *testing.B) {
	net, rs := benchTrace(b)
	eng := New(WithWorkers(1))
	net.ServeBatch(rs[:1]) // build the oracle outside the timed region
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(context.Background(), net, rs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStaticTraceBatchSharded adds the worker pool on top of the
// batch kernel (on a 1-CPU machine it matches Batch1; on multicore it
// scales further).
func BenchmarkStaticTraceBatchSharded(b *testing.B) {
	net, rs := benchTrace(b)
	eng := New(WithWorkers(runtime.GOMAXPROCS(0)))
	net.ServeBatch(rs[:1])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(context.Background(), net, rs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStaticGridSharded runs a whole grid of static trees — the
// scale-experiment shape — through the pool.
func BenchmarkStaticGridSharded(b *testing.B) {
	var nets []NetworkSpec
	for _, k := range []int{2, 3, 5, 10} {
		k := k
		nets = append(nets, NetworkSpec{
			Name: "full",
			Make: func(n int) sim.Network {
				tr, err := statictree.Full(n, k)
				if err != nil {
					b.Fatal(err)
				}
				return frozen("full", tr)
			},
		})
	}
	traces := []TraceSpec{{Name: "uniform", N: 1023, Reqs: workload.Uniform(1023, 100_000, 1).Reqs}}
	eng := New(WithWorkers(runtime.GOMAXPROCS(0)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.RunGrid(context.Background(), nets, traces); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunGenStream serves a generator's stream without ever
// materializing it — the tentpole path of the streaming pipeline — on
// both engine paths. Compare against the StaticTrace benchmarks above to
// see what pulling from the stream costs over iterating a slice.
func BenchmarkRunGenStream(b *testing.B) {
	gen := workload.UniformGen(1023, 200_000, 1)
	b.Run("sequential", func(b *testing.B) {
		net, _ := benchTrace(b)
		eng := New()
		wrapped := &serveOnly{net: net}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.RunGen(context.Background(), wrapped, gen); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		net, rs := benchTrace(b)
		eng := New(WithWorkers(runtime.GOMAXPROCS(0)))
		net.ServeBatch(rs[:1]) // build the oracle outside the timed region
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.RunGen(context.Background(), net, gen); err != nil {
				b.Fatal(err)
			}
		}
	})
}
