package serve

import (
	"reflect"
	"testing"

	"github.com/ksan-net/ksan/internal/sim"
	"github.com/ksan-net/ksan/internal/workload"
)

// TestPartitionDeterminism pins the pure-function contract: two builds of
// the same (n, S) agree on every assignment, and the assignment does not
// depend on anything but (n, S).
func TestPartitionDeterminism(t *testing.T) {
	for _, s := range []int{1, 2, 4, 8} {
		a, err := NewPartition(1000, s)
		if err != nil {
			t.Fatalf("NewPartition(1000, %d): %v", s, err)
		}
		b, _ := NewPartition(1000, s)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("S=%d: two builds of the same partition differ", s)
		}
	}
}

// TestPartitionIdentity pins the property the bit-for-bit golden relies
// on: with one shard, local ids equal global ids.
func TestPartitionIdentity(t *testing.T) {
	p, err := NewPartition(257, 1)
	if err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= 257; id++ {
		if p.ShardOf(id) != 0 || p.LocalOf(id) != id {
			t.Fatalf("node %d: shard %d local %d, want 0/%d", id, p.ShardOf(id), p.LocalOf(id), id)
		}
	}
}

// TestPartitionInvariants checks structural invariants across sizes:
// shard sizes sum to n, local ids are dense 1..size in increasing
// global-id order, every shard has >= 2 nodes.
func TestPartitionInvariants(t *testing.T) {
	for _, tc := range []struct{ n, s int }{{127, 4}, {1000, 8}, {64, 2}, {5000, 16}} {
		p, err := NewPartition(tc.n, tc.s)
		if err != nil {
			t.Fatalf("NewPartition(%d, %d): %v", tc.n, tc.s, err)
		}
		total := 0
		next := make([]int, tc.s)
		for sh := 0; sh < tc.s; sh++ {
			if p.Size(sh) < 2 {
				t.Errorf("(%d,%d): shard %d has %d nodes", tc.n, tc.s, sh, p.Size(sh))
			}
			total += p.Size(sh)
		}
		if total != tc.n {
			t.Errorf("(%d,%d): sizes sum to %d, want %d", tc.n, tc.s, total, tc.n)
		}
		for id := 1; id <= tc.n; id++ {
			sh := p.ShardOf(id)
			next[sh]++
			if p.LocalOf(id) != next[sh] {
				t.Fatalf("(%d,%d): node %d local id %d, want %d (dense, increasing global order)",
					tc.n, tc.s, id, p.LocalOf(id), next[sh])
			}
		}
	}
}

// TestPartitionPinned pins the concrete hash layout so an accidental
// change to mix64 or the assignment rule — which would silently re-shard
// every serving run — fails loudly.
func TestPartitionPinned(t *testing.T) {
	p, err := NewPartition(127, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := []int{p.Size(0), p.Size(1), p.Size(2), p.Size(3)}, []int{30, 28, 35, 34}; !reflect.DeepEqual(got, want) {
		t.Errorf("sizes = %v, want %v", got, want)
	}
	wantShard := map[int]int{1: 1, 2: 2, 3: 1, 64: 3, 127: 0}
	for id, sh := range wantShard {
		if p.ShardOf(id) != sh {
			t.Errorf("ShardOf(%d) = %d, want %d", id, p.ShardOf(id), sh)
		}
	}
}

func TestPartitionErrors(t *testing.T) {
	if _, err := NewPartition(1, 1); err == nil {
		t.Errorf("n=1 must fail")
	}
	if _, err := NewPartition(100, 0); err == nil {
		t.Errorf("s=0 must fail")
	}
	// Far more shards than nodes must leave some shard under 2 nodes.
	if _, err := NewPartition(4, 4); err == nil {
		t.Errorf("n=4,s=4 must fail (some shard gets < 2 nodes)")
	}
}

// TestRouteCostRule pins the cross-shard decomposition: a same-shard pair
// is one local request; a cross-shard pair is the source half to the
// gateway (local node 1), then the destination half from the gateway.
func TestRouteCostRule(t *testing.T) {
	p, err := NewPartition(127, 4)
	if err != nil {
		t.Fatal(err)
	}
	var r Route
	seenCross, seenLocal := false, false
	for u := 1; u <= 127; u++ {
		for v := 1; v <= 127; v++ {
			p.Route(u, v, &r)
			if p.ShardOf(u) == p.ShardOf(v) {
				seenLocal = true
				want := Route{S1: p.ShardOf(u), A1: p.LocalOf(u), B1: p.LocalOf(v)}
				if r != want {
					t.Fatalf("Route(%d,%d) = %+v, want local %+v", u, v, r, want)
				}
			} else {
				seenCross = true
				want := Route{
					Cross: true,
					S1:    p.ShardOf(u), A1: p.LocalOf(u), B1: 1,
					S2: p.ShardOf(v), A2: 1, B2: p.LocalOf(v),
				}
				if r != want {
					t.Fatalf("Route(%d,%d) = %+v, want cross %+v", u, v, r, want)
				}
			}
		}
	}
	if !seenCross || !seenLocal {
		t.Fatalf("test must exercise both route kinds (cross=%v local=%v)", seenCross, seenLocal)
	}
}

// TestProject pins the reference projection: per-shard subsequences in
// global-stream order, cross pairs contributing source half then
// destination half, and nothing else.
func TestProject(t *testing.T) {
	p, err := NewPartition(64, 2)
	if err != nil {
		t.Fatal(err)
	}
	var reqs []sim.Request
	for rq, err := range workload.UniformGen(64, 500, 9).Requests() {
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, rq)
	}
	proj := p.Project(reqs)
	if len(proj) != 2 {
		t.Fatalf("Project returned %d shards, want 2", len(proj))
	}
	// Rebuild each shard's expected subsequence by walking the stream.
	want := make([][]sim.Request, 2)
	var r Route
	for _, rq := range reqs {
		p.Route(rq.Src, rq.Dst, &r)
		want[r.S1] = append(want[r.S1], sim.Request{Src: r.A1, Dst: r.B1})
		if r.Cross {
			want[r.S2] = append(want[r.S2], sim.Request{Src: r.A2, Dst: r.B2})
		}
	}
	for sh := range want {
		if !reflect.DeepEqual(proj[sh], want[sh]) {
			t.Errorf("shard %d projection diverges", sh)
		}
	}
	// Conservation: local halves count once, cross pairs once per side.
	total := len(proj[0]) + len(proj[1])
	cross := 0
	for _, rq := range reqs {
		if p.ShardOf(rq.Src) != p.ShardOf(rq.Dst) {
			cross++
		}
	}
	if total != len(reqs)+cross {
		t.Errorf("projected %d halves, want %d requests + %d cross halves", total, len(reqs), cross)
	}
}

// TestRouteZeroAllocs pins the router's per-request contract: the serve
// path calls Route once per request, so it must not allocate.
func TestRouteZeroAllocs(t *testing.T) {
	p, err := NewPartition(1024, 8)
	if err != nil {
		t.Fatal(err)
	}
	var r Route
	i := 0
	route := func() {
		p.Route(1+i%1024, 1+(i*7)%1024, &r)
		i++
	}
	if avg := testing.AllocsPerRun(1000, route); avg != 0 {
		t.Errorf("%.2f allocs per Route, want 0", avg)
	}
}
