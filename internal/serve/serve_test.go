package serve

import (
	"context"
	"errors"
	"iter"
	"testing"

	"github.com/ksan-net/ksan/internal/policy"
	"github.com/ksan-net/ksan/internal/sim"
	"github.com/ksan-net/ksan/internal/workload"
)

// mkKary builds the canonical fully-reactive 4-ary SplayNet sized to a
// shard — the adjusting network the equivalence properties exercise.
func mkKary(n int) (sim.Network, error) {
	return policy.NewKArySplayNet(n, 4)
}

// mkFrozen builds a frozen 4-ary composition (never × none): it has a
// static oracle, so the serving layer serves it lock-free through it.
func mkFrozen(n int) (sim.Network, error) {
	return policy.NewBalanced("frozen-4ary", n, 4, policy.Never(), policy.None())
}

// recorder is a shard network that logs the local request sequence it
// serves. It embeds the policy net, so the serving layer sees the same
// checkpoint and static-oracle surface. Restore truncates the log to its
// length at the checkpoint, so a crash recovery's replay re-records
// exactly the requests it re-serves.
type recorder struct {
	*policy.Net
	log   []sim.Request
	cpLen int
}

func (r *recorder) Serve(u, v int) sim.Cost {
	r.log = append(r.log, sim.Request{Src: u, Dst: v})
	return r.Net.Serve(u, v)
}

func (r *recorder) CheckpointInto(cp *policy.Checkpoint) error {
	r.cpLen = len(r.log)
	return r.Net.CheckpointInto(cp)
}

func (r *recorder) Restore(cp *policy.Checkpoint) error {
	r.log = r.log[:r.cpLen]
	return r.Net.Restore(cp)
}

// recordKary is mkKary with every shard network wrapped in a recorder,
// appended to recs; Run builds the shards in order, so recs[i] is shard
// i's.
func recordKary(recs *[]*recorder) func(n int) (sim.Network, error) {
	return func(n int) (sim.Network, error) {
		net, err := mkKary(n)
		if err != nil {
			return nil, err
		}
		r := &recorder{Net: net.(*policy.Net)}
		*recs = append(*recs, r)
		return r, nil
	}
}

// collect materializes a generator stream.
func collect(t *testing.T, g workload.Generator) []sim.Request {
	t.Helper()
	var reqs []sim.Request
	for rq, err := range g.Requests() {
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, rq)
	}
	return reqs
}

// replay serves a local request sequence sequentially on a fresh net and
// returns its cost totals — the sequential-semantics reference the
// concurrent layer must match shard for shard.
func replay(t *testing.T, mk func(n int) (sim.Network, error), n int, reqs []sim.Request) (routing, adjust int64) {
	t.Helper()
	net, err := mk(n)
	if err != nil {
		t.Fatal(err)
	}
	for _, rq := range reqs {
		c := net.Serve(rq.Src, rq.Dst)
		routing += c.Routing
		adjust += c.Adjust
	}
	return routing, adjust
}

// TestServeSingleShardGolden pins the anchor of the whole construction:
// one shard, one client reproduces the sequential engine bit-for-bit on
// the repo's golden workload (the same totals golden_test.go pins for the
// engine path).
func TestServeSingleShardGolden(t *testing.T) {
	gen := workload.TemporalGen(127, 50_000, 0.75, 42)
	stats, err := Run(context.Background(), Config{Shards: 1, Clients: 1}, mkKary, gen)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Routing != 123648 || stats.Adjust != 82864 {
		t.Errorf("routing/adjust = %d/%d, want golden 123648/82864", stats.Routing, stats.Adjust)
	}
	if stats.Requests != 50_000 || stats.CrossShard != 0 {
		t.Errorf("requests/cross = %d/%d, want 50000/0", stats.Requests, stats.CrossShard)
	}
	if got := stats.RoutingHist.Sum(); got != stats.Routing {
		t.Errorf("routing histogram sum %d != routing %d", got, stats.Routing)
	}
	if got := stats.RoutingHist.Count(); got != stats.Requests {
		t.Errorf("routing histogram count %d != requests %d", got, stats.Requests)
	}
	ps := stats.PerShard[0]
	if ps.Requests != 50_000 || ps.Routing != 123648 || ps.Adjust != 82864 {
		t.Errorf("per-shard totals %+v diverge from aggregate", ps)
	}
}

// TestServeMultiShardSingleClient pins the S-shard ≡ S-sequential-runs
// property in its deterministic form: with one client, every shard serves
// exactly Partition.Project's subsequence, so its totals equal a
// sequential replay of that subsequence on a fresh identical network.
func TestServeMultiShardSingleClient(t *testing.T) {
	for _, tc := range []struct {
		shards int
		seed   int64
	}{{2, 1}, {4, 1}, {4, 7}, {8, 7}} {
		gen := workload.TemporalGen(200, 20_000, 0.6, tc.seed)
		stats, err := Run(context.Background(), Config{Shards: tc.shards, Clients: 1}, mkKary, gen)
		if err != nil {
			t.Fatal(err)
		}
		part, err := NewPartition(200, tc.shards)
		if err != nil {
			t.Fatal(err)
		}
		proj := part.Project(collect(t, gen))
		var sumRouting, sumAdjust int64
		for sh := 0; sh < tc.shards; sh++ {
			wantR, wantA := replay(t, mkKary, part.Size(sh), proj[sh])
			ps := stats.PerShard[sh]
			if ps.Routing != wantR || ps.Adjust != wantA {
				t.Errorf("S=%d seed=%d shard %d: routing/adjust = %d/%d, sequential replay %d/%d",
					tc.shards, tc.seed, sh, ps.Routing, ps.Adjust, wantR, wantA)
			}
			if ps.Requests != int64(len(proj[sh])) {
				t.Errorf("S=%d seed=%d shard %d: %d local serves, projection has %d",
					tc.shards, tc.seed, sh, ps.Requests, len(proj[sh]))
			}
			sumRouting += ps.Routing
			sumAdjust += ps.Adjust
		}
		// The documented cost rule: aggregate routing exceeds the shard
		// sum by exactly one backbone hop per cross-shard request.
		if want := sumRouting + InterShardHop*stats.CrossShard; stats.Routing != want {
			t.Errorf("S=%d seed=%d: aggregate routing %d, want shard sum %d + %d hops",
				tc.shards, tc.seed, stats.Routing, sumRouting, stats.CrossShard)
		}
		if stats.Adjust != sumAdjust {
			t.Errorf("S=%d seed=%d: aggregate adjust %d != shard sum %d", tc.shards, tc.seed, stats.Adjust, sumAdjust)
		}
	}
}

// TestServeMultiClientLocalSequence pins the equivalence property under
// real concurrency: with C clients the per-shard arrival order is
// nondeterministic, but each shard still serves one well-defined sequence
// under its token. A recorder captures that sequence; replaying it
// sequentially on a fresh identical network must reproduce the shard's
// totals exactly. Run under -race in CI, this is also the single-writer
// assertion: any unsynchronized second writer would trip the detector.
func TestServeMultiClientLocalSequence(t *testing.T) {
	const n, m, shards, clients = 200, 20_000, 4, 4
	gen := workload.TemporalGen(n, m, 0.6, 3)
	var recs []*recorder
	stats, err := Run(context.Background(),
		Config{Shards: shards, Clients: clients}, recordKary(&recs), gen)
	if err != nil {
		t.Fatal(err)
	}
	part, err := NewPartition(n, shards)
	if err != nil {
		t.Fatal(err)
	}
	var localTotal int64
	for sh := 0; sh < shards; sh++ {
		ps, local := stats.PerShard[sh], recs[sh].log
		if local == nil {
			t.Fatalf("shard %d: the recorder logged no sequence", sh)
		}
		if int64(len(local)) != ps.Requests {
			t.Fatalf("shard %d: recorded %d requests, accounted %d", sh, len(local), ps.Requests)
		}
		wantR, wantA := replay(t, mkKary, part.Size(sh), local)
		if ps.Routing != wantR || ps.Adjust != wantA {
			t.Errorf("shard %d: routing/adjust = %d/%d, replay of recorded sequence %d/%d",
				sh, ps.Routing, ps.Adjust, wantR, wantA)
		}
		localTotal += ps.Requests
	}
	// Conservation: every stream request shows up once, cross pairs twice.
	if want := int64(m) + stats.CrossShard; localTotal != want {
		t.Errorf("local serves %d, want %d requests + %d cross halves", localTotal, m, stats.CrossShard)
	}
	if stats.Requests != m {
		t.Errorf("measured %d requests, want the full stream %d", stats.Requests, m)
	}
}

// TestServeFrozenMultiClient pins the lock-free path: on a frozen
// composition request costs are order-independent, so a concurrent
// multi-client run must produce exactly the totals of the sequential
// single-client run. Under -race this asserts the immutable-oracle claim.
func TestServeFrozenMultiClient(t *testing.T) {
	gen := workload.UniformGen(200, 30_000, 5)
	seq, err := Run(context.Background(), Config{Shards: 4, Clients: 1}, mkFrozen, gen)
	if err != nil {
		t.Fatal(err)
	}
	con, err := Run(context.Background(), Config{Shards: 4, Clients: 8}, mkFrozen, gen)
	if err != nil {
		t.Fatal(err)
	}
	if con.Routing != seq.Routing || con.Adjust != 0 || seq.Adjust != 0 {
		t.Errorf("concurrent routing/adjust = %d/%d, sequential %d/%d",
			con.Routing, con.Adjust, seq.Routing, seq.Adjust)
	}
	if con.Requests != seq.Requests || con.CrossShard != seq.CrossShard {
		t.Errorf("concurrent requests/cross = %d/%d, sequential %d/%d",
			con.Requests, con.CrossShard, seq.Requests, seq.CrossShard)
	}
	for sh := range con.PerShard {
		if con.PerShard[sh].Routing != seq.PerShard[sh].Routing {
			t.Errorf("shard %d: concurrent routing %d, sequential %d",
				sh, con.PerShard[sh].Routing, seq.PerShard[sh].Routing)
		}
	}
	// The histograms observe the same multiset of per-request costs.
	for _, q := range []float64{0.5, 0.99, 1} {
		if con.RoutingHist.Percentile(q) != seq.RoutingHist.Percentile(q) {
			t.Errorf("Percentile(%v): concurrent %v, sequential %v",
				q, con.RoutingHist.Percentile(q), seq.RoutingHist.Percentile(q))
		}
	}
}

// TestServeWarmup pins the measurement-region split: warmup requests
// adjust network state and are reported separately, and warm + measured
// totals equal a run with no warmup at all.
func TestServeWarmup(t *testing.T) {
	gen := workload.TemporalGen(127, 10_000, 0.5, 11)
	full, err := Run(context.Background(), Config{}, mkKary, gen)
	if err != nil {
		t.Fatal(err)
	}
	const w = 2_000
	warm, err := Run(context.Background(), Config{Warmup: w}, mkKary, gen)
	if err != nil {
		t.Fatal(err)
	}
	if warm.WarmupRequests != w || warm.Requests != 10_000-w {
		t.Errorf("warmup/measured = %d/%d, want %d/%d", warm.WarmupRequests, warm.Requests, w, 10_000-w)
	}
	if warm.Routing+warm.WarmupRouting != full.Routing ||
		warm.Adjust+warm.WarmupAdjust != full.Adjust {
		t.Errorf("warm+measured = %d/%d, full run = %d/%d",
			warm.Routing+warm.WarmupRouting, warm.Adjust+warm.WarmupAdjust, full.Routing, full.Adjust)
	}
	if got := warm.RoutingHist.Count(); got != 10_000-w {
		t.Errorf("histogram holds %d observations, want measured region %d", got, 10_000-w)
	}
}

// TestServeBudget pins MaxRequests: the run serves exactly the budget,
// split across clients.
func TestServeBudget(t *testing.T) {
	gen := workload.UniformGen(127, 100_000, 2)
	for _, clients := range []int{1, 3} {
		stats, err := Run(context.Background(),
			Config{Shards: 2, Clients: clients, MaxRequests: 5_000}, mkKary, gen)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Requests != 5_000 {
			t.Errorf("clients=%d: served %d, want budget 5000", clients, stats.Requests)
		}
	}
}

// errGen yields a few requests, then fails — the terminal-error contract.
type errGen struct{ boom error }

func (e errGen) Label() string { return "errgen" }
func (e errGen) Nodes() int    { return 16 }
func (e errGen) Len() int      { return workload.UnknownLen }
func (e errGen) Requests() iter.Seq2[sim.Request, error] {
	return func(yield func(sim.Request, error) bool) {
		for i := 0; i < 10; i++ {
			if !yield(sim.Request{Src: 1 + i%16, Dst: 1 + (i+1)%16}, nil) {
				return
			}
		}
		yield(sim.Request{}, e.boom)
	}
}

func TestServeStreamError(t *testing.T) {
	boom := errors.New("disk on fire")
	_, err := Run(context.Background(), Config{}, mkKary, errGen{boom: boom})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want the stream error surfaced", err)
	}
}

func TestServeCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stats, err := Run(ctx, Config{}, mkKary, workload.UniformGen(64, 1_000_000, 1))
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if stats == nil {
		t.Errorf("cancellation must still return partial stats")
	}
}

func TestServeInvalidConfig(t *testing.T) {
	gen := workload.UniformGen(64, 100, 1)
	for _, cfg := range []Config{
		{Shards: -1}, {Clients: -2}, {Warmup: -1}, {MaxRequests: -1}, {TargetOps: -1},
	} {
		if _, err := Run(context.Background(), cfg, mkKary, gen); err == nil {
			t.Errorf("config %+v must be rejected", cfg)
		}
	}
	// Shards the node space cannot sustain.
	if _, err := Run(context.Background(), Config{Shards: 40}, mkKary, workload.UniformGen(50, 100, 1)); err == nil {
		t.Errorf("oversharding must surface the partition error")
	}
}
