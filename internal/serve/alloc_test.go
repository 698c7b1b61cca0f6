package serve

import (
	"context"
	"runtime"
	"testing"
	"time"

	"github.com/ksan-net/ksan/internal/policy"
	"github.com/ksan-net/ksan/internal/sim"
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

// TestRunAllocsConstantInRequests pins the serving layer's allocation
// contract: a run allocates a constant set of shards, clients, channels
// and accumulators, and nothing per request. The configurations cover the
// uncontended token path with and without a fault plan (the plan arms
// deadlines, the replay log and periodic checkpoints), the contended
// path, where clients publish to a shard someone else is serving, the
// lock-free frozen path at every shard count, and crashes that fire, are
// restored and replayed at the same logical points at both run lengths,
// with one client and with four. A restore re-validates the checkpointed
// tree, whose shape depends on how the clients' requests interleaved;
// validation makes the same allocations at every shape, so the crash
// rows do not depend on the interleaving. Over repeated runs on a 2-vCPU
// host (30 plain, 15 under CPU load, 3 under -race) the four-client
// adjusting rows drifted by up to 80 allocations between the two lengths
// and the others by up to 24; each slack sits above its row's drift and
// below the 234 that one allocation every 256 requests adds.
func TestRunAllocsConstantInRequests(t *testing.T) {
	const n, m = 1024, 20_000
	crashes := &FaultPlan{CheckpointEvery: 1024}
	for s := 0; s < 4; s++ {
		crashes.Events = append(crashes.Events, FaultEvent{Shard: s, At: 2000, Kind: FaultCrash})
	}
	for _, tc := range []struct {
		name  string
		cfg   Config
		mk    func(n int) (sim.Network, error)
		slack int64
	}{
		{"s=1/c=1", Config{Shards: 1, Clients: 1}, mkKary, 64},
		{"s=1/c=1/plan", Config{Shards: 1, Clients: 1, Faults: &FaultPlan{Timeout: time.Second}}, mkKary, 64},
		{"s=1/c=2", Config{Shards: 1, Clients: 2}, mkKary, 64},
		{"s=2/c=2", Config{Shards: 2, Clients: 2}, mkKary, 64},
		{"s=4/c=4", Config{Shards: 4, Clients: 4}, mkKary, 128},
		{"s=4/c=4/idle", Config{Shards: 4, Clients: 4, Faults: &FaultPlan{CheckpointEvery: 1024}}, mkKary, 128},
		{"s=4/c=1/crash-recover", Config{Shards: 4, Clients: 1, Faults: crashes}, mkKary, 64},
		{"s=4/c=4/crash-recover", Config{Shards: 4, Clients: 4, Faults: crashes}, mkKary, 128},
		{"frozen/s=1/c=1", Config{Shards: 1, Clients: 1}, mkFrozen, 64},
		{"frozen/s=2/c=2", Config{Shards: 2, Clients: 2}, mkFrozen, 64},
		{"frozen/s=4/c=4", Config{Shards: 4, Clients: 4}, mkFrozen, 64},
		{"frozen/s=8/c=8", Config{Shards: 8, Clients: 8}, mkFrozen, 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			assertConstantInRequests(t, m, tc.slack, 0, func(reqs int) {
				stats, err := Run(context.Background(), tc.cfg, tc.mk, workload.SequentialGen(n, reqs))
				if err != nil {
					t.Fatal(err)
				}
				if stats.Requests != int64(reqs) {
					t.Fatalf("served %d of %d requests", stats.Requests, reqs)
				}
				if tc.cfg.Faults != nil && stats.Faults.Crashes != int64(len(tc.cfg.Faults.Events)) {
					t.Fatalf("%d of %d crashes fired", stats.Faults.Crashes, len(tc.cfg.Faults.Events))
				}
			})
		})
	}
}

// TestRecoveryAllocsConstantInReplay pins the recovery contract: a
// restore rebuilds the tree from its checkpoint and so allocates, but
// once per recovery, never per replayed request.
func TestRecoveryAllocsConstantInReplay(t *testing.T) {
	const n, m = 1024, 20_000
	net, err := mkKary(n)
	if err != nil {
		t.Fatal(err)
	}
	for r, err := range workload.SequentialGen(n, 10_000).Requests() {
		if err != nil {
			t.Fatal(err)
		}
		net.Serve(r.Src, r.Dst)
	}
	rec := net.(recoverable)
	var cp policy.Checkpoint
	if err := rec.CheckpointInto(&cp); err != nil {
		t.Fatal(err)
	}
	wal := make([]sim.Request, 4*m)
	for i := range wal {
		wal[i] = sim.Request{Src: 1 + i%n, Dst: 1 + (i*7)%n}
	}
	assertConstantInRequests(t, m, 64, 0, func(reqs int) {
		if err := rec.Restore(&cp); err != nil {
			t.Fatal(err)
		}
		for _, r := range wal[:reqs] {
			net.Serve(r.Src, r.Dst)
		}
	})
}
