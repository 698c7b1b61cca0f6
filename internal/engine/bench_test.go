package engine

import (
	"context"
	"testing"

	"github.com/ksan-net/ksan/internal/policy"
	"github.com/ksan-net/ksan/internal/sim"
	"github.com/ksan-net/ksan/internal/statictree"
	"github.com/ksan-net/ksan/internal/workload"
)

// benchTrace is the static-tree measurement of the scale experiments: a
// frozen full 3-ary tree and 200 000 uniform requests.
func benchTrace(b *testing.B) (*policy.Net, []sim.Request) {
	b.Helper()
	tr, err := statictree.Full(1023, 3)
	if err != nil {
		b.Fatal(err)
	}
	return frozen("full", tr), workload.Uniform(1023, 200_000, 1).Reqs
}

// BenchmarkStaticTrace serves a materialized trace on the frozen tree
// through Engine.Run; past the first static stretch every request is
// answered by the distance oracle.
func BenchmarkStaticTrace(b *testing.B) {
	net, rs := benchTrace(b)
	eng := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(context.Background(), net, rs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunGenStream serves the same trace from a generator without
// ever materializing it. Compare against BenchmarkStaticTrace to see what
// pulling from the stream costs over iterating a slice.
func BenchmarkRunGenStream(b *testing.B) {
	gen := workload.UniformGen(1023, 200_000, 1)
	net, _ := benchTrace(b)
	eng := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.RunGen(context.Background(), net, gen); err != nil {
			b.Fatal(err)
		}
	}
}
