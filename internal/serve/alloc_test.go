package serve

import (
	"context"
	"testing"
	"time"

	"github.com/ksan-net/ksan/internal/workload"
)

// TestRunAllocsConstantInRequests pins the serving layer's allocation
// contract: a run allocates a constant set of shards, clients, channels
// and accumulators, and nothing per request. A run over 4m requests must
// therefore make as many allocations as a run over m, to within a small
// slack for histogram buckets and the runtime; one allocation per
// request would add 3m. The configurations cover the uncontended token
// path with and without a fault plan (the plan arms deadlines, the
// replay log and periodic checkpoints) and the contended path, where
// clients publish to a shard someone else is serving.
func TestRunAllocsConstantInRequests(t *testing.T) {
	const n, m, slack = 127, 20_000, 64
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"s=1/c=1", Config{Shards: 1, Clients: 1}},
		{"s=1/c=1/plan", Config{Shards: 1, Clients: 1, Faults: &FaultPlan{Timeout: time.Second}}},
		{"s=1/c=2", Config{Shards: 1, Clients: 2}},
		{"s=2/c=2", Config{Shards: 2, Clients: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var allocs [2]float64
			for i, reqs := range []int{m, 4 * m} {
				gen := workload.TemporalGen(n, reqs, 0.6, 1)
				allocs[i] = testing.AllocsPerRun(1, func() {
					stats, err := Run(context.Background(), tc.cfg, mkKary, gen)
					if err != nil {
						t.Fatal(err)
					}
					if stats.Requests != int64(reqs) {
						t.Fatalf("served %d of %d requests", stats.Requests, reqs)
					}
				})
			}
			if d := allocs[1] - allocs[0]; d > slack || d < -slack {
				t.Errorf("a run made %.0f allocations over %d requests but %.0f over %d, want the same to within %d",
					allocs[0], m, allocs[1], 4*m, slack)
			}
			t.Logf("%.0f allocations over %d requests, %.0f over %d", allocs[0], m, allocs[1], 4*m)
		})
	}
}
