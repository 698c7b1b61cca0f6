//go:build goexperiment.synctest

package serve

import (
	"context"
	"encoding/binary"
	"testing"
	"testing/synctest"
	"time"

	"github.com/ksan-net/ksan/internal/policy"
	"github.com/ksan-net/ksan/internal/sim"
	"github.com/ksan-net/ksan/internal/statictree"
	"github.com/ksan-net/ksan/internal/workload"
)

// runInBubble is Run inside a synctest bubble. The result leaves the
// bubble over a channel: read straight from variables the bubble's root
// goroutine wrote, it raced under -race on Go 1.24, whose detector saw
// no ordering between those writes and synctest.Run returning.
func runInBubble(cfg Config, mk func(n int) (sim.Network, error), gen workload.Generator) (*Stats, error) {
	type result struct {
		stats *Stats
		err   error
	}
	done := make(chan result, 1)
	synctest.Run(func() {
		stats, err := Run(context.Background(), cfg, mk, gen)
		done <- result{stats, err}
	})
	r := <-done
	return r.stats, r.err
}

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
			stats, err := runInBubble(cfg, mkKary, workload.TemporalGen(64, tc.m, 0.6, 13))
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

// TestSynctestLossyOutageLedger pins the whole ledger of a lossy outage
// with retries and stale reads on an alpha × rebuild-wb net, in the
// fault-plan shape of the benchmark's lazy workload: checkpoints every
// 2 000 serves, a crash on a checkpoint boundary and one mid-interval
// (both lossless), then a crash that rejects 30 arrivals. One client
// with two retries per request and backoff between them turns those 30
// rejections into 10 requests served degraded through the stale
// checkpoint oracle, and the 20 backoff sleeps are the run's only
// virtual time. The oracle is built over the tree the crash restored,
// whose arena the rebuild after next reuses; the test checks the
// replayed and degraded costs against a sequential run of the same
// stream, so a degraded read that saw the reused arena would show.
//
// Run with GOEXPERIMENT=synctest on Go 1.24.
func TestSynctestLossyOutageLedger(t *testing.T) {
	const n, m, alpha = 1023, 20_000, 3000
	const lossyAt = 4*m/5 + 123
	mk := func(n int) (sim.Network, error) { return policy.NewLazy(n, 4, alpha) }
	cfg := Config{Shards: 1, Clients: 1, Faults: &FaultPlan{
		CheckpointEvery: 2000,
		Degraded:        DegradedStale,
		Timeout:         time.Second,
		Retries:         2,
		Backoff:         time.Millisecond,
		BackoffCap:      4 * time.Millisecond,
		Seed:            7,
		Events: []FaultEvent{
			{At: 4000, Kind: FaultCrash},
			{At: m/2 + 777, Kind: FaultCrash},
			{At: lossyAt, Kind: FaultCrash, RecoverAfter: 30},
		},
	}}
	gen := workload.HotspotGen(n, m, 0.1, 0.9, 7)
	stats, err := runInBubble(cfg, mk, gen)
	if err != nil {
		t.Fatal(err)
	}
	want := FaultStats{Crashes: 3, Recoveries: 3, Checkpoints: 10,
		ReplayedRequests: 777 + 123, ReplayRouting: 6404, ReplayAdjust: 2976,
		Rejected: 30, Retries: 20, DegradedRequests: 10, DegradedRouting: 74}
	if *stats.Faults != want {
		t.Errorf("fault ledger\n got %+v\nwant %+v", *stats.Faults, want)
	}
	if stats.Requests != m-10 {
		t.Errorf("healthy requests = %d, want %d", stats.Requests, m-10)
	}
	if want := 23213296 * time.Nanosecond; stats.Elapsed != want {
		t.Errorf("Elapsed = %v, want %v of virtual time", stats.Elapsed, want)
	}

	// The sequential run: serve i (1-based) is request i, replays re-serve
	// (10000, 10777] and (16000, 16123], and the 10 degraded requests
	// after serve 16123 are read on the tree checkpointed at serve 16000.
	ref, err := policy.NewLazy(n, 4, alpha)
	if err != nil {
		t.Fatal(err)
	}
	reqs := workload.MustCollect(gen).Reqs
	var replay sim.Cost
	var stale *statictree.DistIndex
	for i, rq := range reqs[:lossyAt] {
		c := ref.Serve(rq.Src, rq.Dst)
		if serve := i + 1; serve > m/2 && serve <= m/2+777 || serve > 4*m/5 {
			replay.Routing += c.Routing
			replay.Adjust += c.Adjust
		}
		if i+1 == 4*m/5 {
			stale = statictree.NewDistIndex(ref.Tree())
		}
	}
	var degraded int64
	for _, rq := range reqs[lossyAt : lossyAt+10] {
		degraded += stale.Dist(rq.Src, rq.Dst)
	}
	if replay.Routing != want.ReplayRouting || replay.Adjust != want.ReplayAdjust || degraded != want.DegradedRouting {
		t.Errorf("sequential run: replay %d/%d, degraded routing %d; the pinned ledger says %d/%d and %d",
			replay.Routing, replay.Adjust, degraded, want.ReplayRouting, want.ReplayAdjust, want.DegradedRouting)
	}
}

// FuzzFaultProtocol runs random fault plans through the whole serving
// protocol in virtual time and checks the identities that hold for every
// interleaving. The input decodes to S ∈ 1..3 shards, C ∈ 1..4 clients,
// a checkpoint interval (0 = the default), a deadline (0 = none),
// retries, a backoff, the degraded mode, a seed for the jitter and the
// trace, and up to four crash or stall events, five bytes each: the
// shard, the trigger point (two bytes), the kind and one parameter — a
// crash's RecoverAfter in -1..38, a stall's length in milliseconds.
// Every shard network is a recorder. The checks:
//
//   - healthy, failed and degraded requests add up to the budget;
//   - LateReplies ≤ Timeouts, Retries ≤ Rejected, Recoveries ≤ Crashes;
//   - nothing is degraded under DegradedFail;
//   - every shard whose crashes all recovered reports the requests,
//     routing and adjust of a sequential replay of what it served (the
//     third rung of the equivalence ladder, under faults). A shard with
//     a crash that never recovered is skipped: its lost serves are in
//     its totals but not in its restored log.
//
// A protocol deadlock needs no check: synctest panics when every
// goroutine in the bubble is blocked.
//
// Run with GOEXPERIMENT=synctest on Go 1.24.
func FuzzFaultProtocol(f *testing.F) {
	const n, budget = 64, 600
	f.Fuzz(func(t *testing.T, shards, clients, cpEvery, timeoutMs, retries, backoffUs uint8, stale bool, seed uint64, events []byte) {
		cfg := Config{Shards: 1 + int(shards)%3, Clients: 1 + int(clients)%4, MaxRequests: budget}
		plan := &FaultPlan{
			CheckpointEvery: int64(cpEvery),
			Timeout:         time.Duration(timeoutMs%32) * time.Millisecond,
			Retries:         int(retries % 4),
			Backoff:         time.Duration(backoffUs) * time.Microsecond,
			BackoffCap:      time.Millisecond,
			Seed:            seed,
		}
		if stale {
			plan.Degraded = DegradedStale
		}
		type point struct {
			shard int
			at    int64
		}
		taken := map[point]bool{}
		for ; len(events) >= 5 && len(plan.Events) < 4; events = events[5:] {
			ev := FaultEvent{
				Shard: int(events[0]) % cfg.Shards,
				At:    1 + int64(binary.LittleEndian.Uint16(events[1:]))%budget,
			}
			if taken[point{ev.Shard, ev.At}] {
				continue
			}
			taken[point{ev.Shard, ev.At}] = true
			if events[3]%2 == 0 {
				ev.Kind, ev.RecoverAfter = FaultCrash, int64(events[4]%40)-1
			} else {
				ev.Kind, ev.Stall = FaultStall, time.Duration(1+int(events[4]))*time.Millisecond
			}
			plan.Events = append(plan.Events, ev)
		}
		cfg.Faults = plan

		var recs []*recorder
		stats, err := runInBubble(cfg, recordKary(&recs), workload.TemporalGen(n, 2*budget, 0.6, int64(seed%1000)))
		if err != nil {
			t.Fatal(err)
		}
		fs := stats.Faults
		if got := stats.Requests + stats.WarmupRequests + fs.FailedRequests + fs.DegradedRequests; got != budget {
			t.Errorf("healthy %d + failed %d + degraded %d = %d, want the budget %d",
				stats.Requests+stats.WarmupRequests, fs.FailedRequests, fs.DegradedRequests, got, budget)
		}
		if fs.LateReplies > fs.Timeouts || fs.Retries > fs.Rejected || fs.Recoveries > fs.Crashes {
			t.Errorf("late %d > timeouts %d, retries %d > rejected %d, or recoveries %d > crashes %d",
				fs.LateReplies, fs.Timeouts, fs.Retries, fs.Rejected, fs.Recoveries, fs.Crashes)
		}
		if plan.Degraded == DegradedFail && fs.DegradedRequests != 0 {
			t.Errorf("%d requests degraded under fail", fs.DegradedRequests)
		}
		part, err := NewPartition(n, cfg.Shards)
		if err != nil {
			t.Fatal(err)
		}
		for sh, ps := range stats.PerShard {
			if ps.Recoveries != ps.Crashes {
				continue
			}
			log := recs[sh].log
			wantR, wantA := replay(t, mkKary, part.Size(sh), log)
			if ps.Requests != int64(len(log)) || ps.Routing != wantR || ps.Adjust != wantA {
				t.Errorf("shard %d reports %d requests, routing/adjust %d/%d; it served %d, whose replay costs %d/%d",
					sh, ps.Requests, ps.Routing, ps.Adjust, len(log), wantR, wantA)
			}
		}
	})
}
