package workload

import (
	"runtime"
	"testing"
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

// TestGeneratorAllocsConstantInRequests pins the streaming contract of
// every generator kind: a pass allocates its rng, permutations and
// samplers once, never per request. Collect is the materializing
// counterpart and adds exactly the trace: one slice of m requests. Over
// 30 runs the two lengths differed by at most 1 allocation; one
// allocation every 256 requests would add 293.
func TestGeneratorAllocsConstantInRequests(t *testing.T) {
	const n, m = 256, 25_000
	gens := map[int][]namedGen{m: everyKind(t, n, m), 4 * m: everyKind(t, n, 4*m)}
	for i, tc := range gens[m] {
		t.Run(tc.name, func(t *testing.T) {
			assertConstantInRequests(t, m, 8, 0, func(reqs int) {
				if count := pass(t, gens[reqs][i].gen); count != reqs {
					t.Fatalf("pass yielded %d requests, want %d", count, reqs)
				}
			})
		})
	}
	t.Run("collect", func(t *testing.T) {
		assertConstantInRequests(t, m, 8, 16, func(reqs int) {
			tr, err := Collect(UniformGen(n, reqs, 1))
			if err != nil {
				t.Fatal(err)
			}
			if tr.Len() != reqs {
				t.Fatalf("collected %d requests, want %d", tr.Len(), reqs)
			}
		})
	})
}
