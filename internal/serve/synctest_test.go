//go:build goexperiment.synctest

package serve

import (
	"context"
	"testing"
	"testing/synctest"
	"time"

	"github.com/ksan-net/ksan/internal/workload"
)

// TestSynctestStallLedgers pins the wall-clock fault schedules exactly.
// Inside a synctest bubble the clock moves only when every goroutine of
// the run is blocked, so stalls, deadlines and the stop that ends a
// stall happen at exact virtual instants, and the whole fault ledger,
// the healthy count, the shard's serve count and Elapsed are fixed
// numbers instead of the inequalities the wall-clock tests assert.
//
// Both schedules have one shard and one client, whose request 10 starts
// a stall and whose later requests each wait out a 20 ms deadline:
// request 11 is delivered and times out, and each later one times out
// waiting for the full publication queue. The stall ends either on its
// own (150 ms) or when the client's budget is spent (20 timeouts,
// 400 ms), and then request 11 is served late, exactly once.
//
// Run with GOEXPERIMENT=synctest on Go 1.24.
func TestSynctestStallLedgers(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cfg      Config
		m        int
		stall    time.Duration
		want     FaultStats
		healthy  int64
		served   int64
		duration time.Duration
	}{
		{
			// TestStallAndTimeout's schedule: the stall ends at 150 ms,
			// seven deadlines into it, and the rest of the stream is
			// served healthy.
			name:  "stall-and-timeout",
			m:     200,
			stall: 150 * time.Millisecond,
			want: FaultStats{Checkpoints: 1, Stalls: 1, Timeouts: 7, FailedRequests: 7,
				LateReplies: 1, LateRouting: 8},
			healthy: 193, served: 194, duration: 150 * time.Millisecond,
		},
		{
			// TestStallEndsWhenRunStops' budget/timeout case: the 3 s
			// stall ends when the last request of the budget times out.
			name:  "budget/timeout",
			cfg:   Config{MaxRequests: 30},
			m:     100_000,
			stall: 3 * time.Second,
			want: FaultStats{Checkpoints: 1, Stalls: 1, Timeouts: 20, FailedRequests: 20,
				LateReplies: 1, LateRouting: 8},
			healthy: 10, served: 11, duration: 400 * time.Millisecond,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Faults = &FaultPlan{
				Timeout: 20 * time.Millisecond,
				Events:  []FaultEvent{{Shard: 0, At: 10, Kind: FaultStall, Stall: tc.stall}},
			}
			var stats *Stats
			var err error
			synctest.Run(func() {
				stats, err = Run(context.Background(), cfg, mkKary, workload.TemporalGen(64, tc.m, 0.6, 13))
			})
			if err != nil {
				t.Fatal(err)
			}
			if *stats.Faults != tc.want {
				t.Errorf("fault ledger\n got %+v\nwant %+v", *stats.Faults, tc.want)
			}
			if got := stats.Requests + stats.WarmupRequests; got != tc.healthy {
				t.Errorf("healthy requests = %d, want %d", got, tc.healthy)
			}
			if got := stats.PerShard[0].Requests; got != tc.served {
				t.Errorf("shard 0 served %d, want %d", got, tc.served)
			}
			if stats.Elapsed != tc.duration {
				t.Errorf("Elapsed = %v, want %v of virtual time", stats.Elapsed, tc.duration)
			}
		})
	}
}
