package engine

import (
	"context"
	"runtime"
	"testing"

	"github.com/ksan-net/ksan/internal/statictree"
	"github.com/ksan-net/ksan/internal/workload"
)

// assertConstantInRequests fails t unless run makes the same heap
// allocations over 4m requests as over m, to within slackAllocs, and
// perReq more bytes for each extra request, to within 64 KiB. One
// allocation every 256 requests adds 3m/256 allocations, and keeping
// every request adds at least 3m·sizeof(Request) bytes. It measures the
// way testing.AllocsPerRun does: on one P, after a warm-up run, so
// one-time initialisation is not counted.
func assertConstantInRequests(t *testing.T, m int, slackAllocs, perReq int64, run func(reqs int)) {
	t.Helper()
	const slackBytes = 64 << 10
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run(m)
	var allocs, bytes [2]int64
	for i, reqs := range []int{m, 4 * m} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run(reqs)
		runtime.ReadMemStats(&after)
		allocs[i], bytes[i] = int64(after.Mallocs-before.Mallocs), int64(after.TotalAlloc-before.TotalAlloc)
	}
	if d := allocs[1] - allocs[0]; d > slackAllocs || d < -slackAllocs {
		t.Errorf("%d allocations over %d requests but %d over %d, want the same to within %d",
			allocs[0], m, allocs[1], 4*m, slackAllocs)
	}
	if d := bytes[1] - bytes[0] - int64(3*m)*perReq; d > slackBytes || d < -slackBytes {
		t.Errorf("%d bytes over %d requests but %d over %d, want %d more per request to within %d",
			bytes[0], m, bytes[1], 4*m, perReq, slackBytes)
	}
	t.Logf("%d allocations (%d B) over %d requests, %d (%d B) over %d", allocs[0], bytes[0], m, allocs[1], bytes[1], 4*m)
}

// TestRunGenAllocsConstantInRequests pins the engine's allocation
// contract: RunGen allocates its histogram, accumulators and generator
// state once per run, never per request. The net is frozen, so past its
// first static stretch it routes through the distance oracle. Over 30
// runs the two lengths differed by at most 2 allocations; one allocation
// every 256 requests would add 586.
func TestRunGenAllocsConstantInRequests(t *testing.T) {
	const n, m = 1023, 50_000
	full, err := statictree.Full(n, 3)
	if err != nil {
		t.Fatal(err)
	}
	net, eng := frozen("full", full), New(WithWorkers(2))
	t.Run("frozen", func(t *testing.T) {
		assertConstantInRequests(t, m, 8, 0, func(reqs int) {
			res, err := eng.RunGen(context.Background(), net, workload.UniformGen(n, reqs, 1))
			if err != nil {
				t.Fatal(err)
			}
			if res.Requests != int64(reqs) {
				t.Fatalf("served %d of %d requests", res.Requests, reqs)
			}
		})
	})
}
