package policy

import (
	"math/rand"
	"testing"

	"github.com/ksan-net/ksan/internal/sim"
	"github.com/ksan-net/ksan/internal/statictree"
	"github.com/ksan-net/ksan/internal/workload"
)

// checkpointCases are the compositions the recovery ladder must cover:
// every stock trigger shape (stateless, counting, cost-accumulating with
// hysteresis, lifetime-prefix) crossed with both adjuster families
// (splay-style tree surgery and windowed rebuilds, the generic one and
// the point-weight one the lazy net uses).
var checkpointCases = []struct {
	name string
	mk   func(t *testing.T) *Net
}{
	{"always-splay", func(t *testing.T) *Net {
		net, err := New("kary", mustTree(t, 60, 3), Always(), Splay())
		if err != nil {
			t.Fatal(err)
		}
		return net
	}},
	{"every-semisplay", func(t *testing.T) *Net {
		net, err := New("periodic", mustTree(t, 60, 3), EveryM(7), SemiSplay())
		if err != nil {
			t.Fatal(err)
		}
		return net
	}},
	{"alpha-rebuild", func(t *testing.T) *Net {
		net, err := New("lazy", mustTree(t, 60, 3), AlphaHysteresis(1200, 32),
			Rebuild("weight-balanced", statictree.WeightBalanced))
		if err != nil {
			t.Fatal(err)
		}
		// Force incremental window compaction so Pending is exercised.
		net.compactAfter = 48
		return net
	}},
	{"alpha-rebuild-wb", func(t *testing.T) *Net {
		net, err := NewLazy(60, 3, 1200)
		if err != nil {
			t.Fatal(err)
		}
		net.compactAfter = 48
		return net
	}},
	{"first-splay", func(t *testing.T) *Net {
		net, err := New("warmup", mustTree(t, 60, 3), First(400), Splay())
		if err != nil {
			t.Fatal(err)
		}
		return net
	}},
	{"never-none", func(t *testing.T) *Net {
		net, err := New("frozen", mustTree(t, 60, 3), Never(), None())
		if err != nil {
			t.Fatal(err)
		}
		return net
	}},
}

func checkpointTrace(n, m int, seed int64) []sim.Request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]sim.Request, m)
	for i := range reqs {
		u, v := 1+rng.Intn(n), 1+rng.Intn(n)
		reqs[i] = sim.Request{Src: u, Dst: v}
	}
	return reqs
}

// TestCheckpointRestoreEquivalence is the policy-layer rung of the
// recovery ladder: serve a prefix, checkpoint, serve the suffix on the
// live net — then restore a fresh identically-composed net from the
// checkpoint and replay the suffix. Both the per-request cost stream and
// the final topology must be bit-identical, at every checkpoint offset
// tried.
func TestCheckpointRestoreEquivalence(t *testing.T) {
	for _, tc := range checkpointCases {
		t.Run(tc.name, func(t *testing.T) {
			reqs := checkpointTrace(60, 3000, 5)
			for _, cut := range []int{0, 1, 17, 500, 1333, 2999} {
				live := tc.mk(t)
				var cp Checkpoint
				for i := 0; i < cut; i++ {
					live.Serve(reqs[i].Src, reqs[i].Dst)
				}
				if err := live.CheckpointInto(&cp); err != nil {
					t.Fatal(err)
				}
				liveCosts := make([]sim.Cost, 0, len(reqs)-cut)
				for _, rq := range reqs[cut:] {
					liveCosts = append(liveCosts, live.Serve(rq.Src, rq.Dst))
				}

				restored := tc.mk(t)
				if err := restored.Restore(&cp); err != nil {
					t.Fatal(err)
				}
				for i, rq := range reqs[cut:] {
					if got := restored.Serve(rq.Src, rq.Dst); got != liveCosts[i] {
						t.Fatalf("cut=%d suffix request %d (%d→%d): restored %+v, live %+v",
							cut, i, rq.Src, rq.Dst, got, liveCosts[i])
					}
				}
				if got, want := restored.Tree().Render(), live.Tree().Render(); got != want {
					t.Fatalf("cut=%d: final topologies diverge\nrestored:\n%s\nlive:\n%s", cut, got, want)
				}
				if err := restored.Tree().Validate(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestCheckpointIsDeepCopy pins the isolation contract: serving past the
// checkpoint (mutating tree, window, trigger, and the in-place compacted
// aggregate) must not disturb a taken checkpoint, and restoring twice
// from the same checkpoint yields identical replays.
func TestCheckpointIsDeepCopy(t *testing.T) {
	mk := checkpointCases[2].mk // alpha-rebuild with forced compaction
	reqs := checkpointTrace(60, 2500, 9)
	cut := 700

	live := mk(t)
	for i := 0; i < cut; i++ {
		live.Serve(reqs[i].Src, reqs[i].Dst)
	}
	var cp Checkpoint
	if err := live.CheckpointInto(&cp); err != nil {
		t.Fatal(err)
	}
	if cp.Pending == nil {
		t.Fatal("checkpoint captured no compacted aggregate; the deep-copy test is vacuous")
	}
	// Mutate the live net well past the checkpoint (more compaction Merges
	// mutate pending in place; rebuilds swap the tree).
	for _, rq := range reqs[cut:] {
		live.Serve(rq.Src, rq.Dst)
	}

	replay := func() []sim.Cost {
		net := mk(t)
		if err := net.Restore(&cp); err != nil {
			t.Fatal(err)
		}
		costs := make([]sim.Cost, 0, len(reqs)-cut)
		for _, rq := range reqs[cut:] {
			costs = append(costs, net.Serve(rq.Src, rq.Dst))
		}
		return costs
	}
	first, second := replay(), replay()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("replays from one checkpoint diverge at request %d: %+v vs %+v", i, first[i], second[i])
		}
	}
}

// TestCheckpointReuseAllocFree pins the steady-state cost of periodic
// checkpointing: once a Checkpoint's backing arrays have grown to size,
// re-checkpointing a windowless net into it allocates nothing.
func TestCheckpointReuseAllocFree(t *testing.T) {
	net, err := New("kary", mustTree(t, 127, 4), Always(), Splay())
	if err != nil {
		t.Fatal(err)
	}
	reqs := checkpointTrace(127, 400, 3)
	var cp Checkpoint
	i := 0
	if err := net.CheckpointInto(&cp); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		rq := reqs[i%len(reqs)]
		i++
		net.Serve(rq.Src, rq.Dst)
		if err := net.CheckpointInto(&cp); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state serve+checkpoint allocates %.1f objects/op, want 0", allocs)
	}
}

// TestRebuildReuseAllocFree pins the steady-state cost of a rebuild-wb
// firing on the lazy serving workload's shape (n=4095, k=4, alpha 20000,
// hotspot traffic): once the window, the builder's scratch and the spare
// arena have grown to size, serving a stretch through its firing
// allocates nothing. A stretch ends at its firing attempt: a firing that
// fails to build, or a whole trace served without one, fails the test.
func TestRebuildReuseAllocFree(t *testing.T) {
	const n, k = 4095, 4
	net, err := New("lazy", mustTree(t, n, k), Alpha(20000), RebuildWeightBalanced("weight-balanced"))
	if err != nil {
		t.Fatal(err)
	}
	reqs := workload.MustCollect(workload.HotspotGen(n, 100_000, 0.1, 0.9, 1)).Reqs
	i := 0
	stretch := func() {
		rebuilds, failed := net.Rebuilds(), net.FailedRebuilds()
		for served := 0; net.Rebuilds() == rebuilds; served++ {
			if net.FailedRebuilds() != failed {
				t.Fatalf("a firing failed to build: %v", net.LastFailure())
			}
			if served == len(reqs) {
				t.Fatalf("%d requests served without a firing", served)
			}
			rq := reqs[i%len(reqs)]
			net.Serve(rq.Src, rq.Dst)
			i++
		}
	}
	for range 3 {
		stretch()
	}
	if allocs := testing.AllocsPerRun(20, stretch); allocs != 0 {
		t.Errorf("a steady-state stretch and its firing allocate %.1f objects, want 0", allocs)
	}
}

func TestCheckpointErrors(t *testing.T) {
	custom, err := NewCustom("custom", fakeTopology{}, Always(), None())
	if err != nil {
		t.Fatal(err)
	}
	var cp Checkpoint
	if err := custom.CheckpointInto(&cp); err == nil {
		t.Error("custom substrate checkpointed")
	}
	if err := custom.Restore(&cp); err == nil {
		t.Error("custom substrate restored")
	}
	if custom.Checkpointable() {
		t.Error("custom substrate reported checkpointable")
	}

	tree62, err2 := New("x", mustTree(t, 62, 3), Always(), Splay())
	if err2 != nil {
		t.Fatal(err2)
	}
	if !tree62.Checkpointable() {
		t.Error("tree-backed stock composition reported not checkpointable")
	}
	if err := tree62.Restore(&cp); err == nil {
		t.Error("restore from an empty checkpoint accepted")
	}

	// Shape mismatch: checkpoint of a 60-node net into a 62-node net.
	donor, err3 := New("y", mustTree(t, 60, 3), Always(), Splay())
	if err3 != nil {
		t.Fatal(err3)
	}
	if err := donor.CheckpointInto(&cp); err != nil {
		t.Fatal(err)
	}
	if err := tree62.Restore(&cp); err == nil {
		t.Error("restore from a differently-sized checkpoint accepted")
	}

	// Corrupted snapshot: out-of-range root must be rejected, net unchanged.
	before := donor.Tree().Render()
	cp.Tree.Root = 99
	if err := donor.Restore(&cp); err == nil {
		t.Error("restore from a corrupted snapshot accepted")
	}
	if donor.Tree().Render() != before {
		t.Error("failed restore mutated the net")
	}

	// Trigger-state shape mismatch.
	if err := donor.CheckpointInto(&cp); err != nil {
		t.Fatal(err)
	}
	cp.Trig = append(cp.Trig, 7)
	if err := donor.Restore(&cp); err == nil {
		t.Error("restore with stateless trigger but non-empty trigger state accepted")
	}
	alphaNet, err4 := New("z", mustTree(t, 60, 3), Alpha(100), Splay())
	if err4 != nil {
		t.Fatal(err4)
	}
	var acp Checkpoint
	if err := alphaNet.CheckpointInto(&acp); err != nil {
		t.Fatal(err)
	}
	acp.Trig = acp.Trig[:1]
	if err := alphaNet.Restore(&acp); err == nil {
		t.Error("restore with truncated alpha-trigger state accepted")
	}
}

// FuzzRestore mutates a checkpoint taken mid-trace and restores it on a
// net that has served a different prefix. Restore must either fail and
// leave the net unchanged — it then serves the rest of the trace exactly
// as an untouched twin does — or succeed with a tree that passes
// Validate and a net that serves the whole trace. which picks the
// composition from checkpointCases; each five bytes of muts are one
// mutation: a target (tree parent link, span entry, root, arity or node
// count; trigger word; window request or length; window aggregate), a
// 16-bit index and a signed 16-bit value.
func FuzzRestore(f *testing.F) {
	f.Add(uint8(0), int64(1), uint16(100), []byte{})
	f.Add(uint8(0), int64(1), uint16(100), []byte{0, 5, 0, 0, 0})       // node 5 loses its parent
	f.Add(uint8(1), int64(2), uint16(50), []byte{5, 0, 0, 0xff, 0xff})  // every-trigger count -1
	f.Add(uint8(3), int64(3), uint16(250), []byte{6, 3, 0, 61, 0})      // a window request to node 61
	f.Add(uint8(3), int64(3), uint16(250), []byte{7, 9, 0, 0, 0})       // the window cut to 9 requests
	f.Add(uint8(3), int64(4), uint16(250), []byte{8, 0, 0, 0, 0})       // an aggregate pair from node 0
	f.Add(uint8(2), int64(4), uint16(250), []byte{8, 2, 0, 0xf6, 0xff}) // an aggregate count of -10
	f.Add(uint8(4), int64(5), uint16(10), []byte{6, 0, 0, 3, 0})        // a window on a splay net
	f.Add(uint8(5), int64(6), uint16(77), []byte{3, 0, 0, 4, 0})        // arity 4
	f.Fuzz(func(t *testing.T, which uint8, seed int64, cut uint16, muts []byte) {
		tc := checkpointCases[int(which)%len(checkpointCases)]
		reqs := checkpointTrace(60, 600, seed)
		donor, net, twin := tc.mk(t), tc.mk(t), tc.mk(t)
		for _, rq := range reqs[:int(cut)%300] {
			donor.Serve(rq.Src, rq.Dst)
		}
		for _, rq := range reqs[:100] {
			net.Serve(rq.Src, rq.Dst)
			twin.Serve(rq.Src, rq.Dst)
		}
		var cp Checkpoint
		if err := donor.CheckpointInto(&cp); err != nil {
			t.Fatal(err)
		}
		for ; len(muts) >= 5; muts = muts[5:] {
			at := int(muts[1]) | int(muts[2])<<8
			v := int(int16(uint16(muts[3]) | uint16(muts[4])<<8))
			switch muts[0] % 9 {
			case 0:
				cp.Tree.Parent[at%len(cp.Tree.Parent)] = int32(v)
			case 1:
				cp.Tree.RC[at%len(cp.Tree.RC)] = int32(v)
			case 2:
				cp.Tree.Root = int32(v)
			case 3:
				cp.Tree.K = v
			case 4:
				cp.Tree.N = v
			case 5:
				if len(cp.Trig) == 0 {
					cp.Trig = append(cp.Trig, int64(v))
				} else {
					cp.Trig[at%len(cp.Trig)] = int64(v)
				}
			case 6:
				if len(cp.Window) == 0 || at%4 == 0 {
					cp.Window = append(cp.Window, sim.Request{Src: v, Dst: v + 1})
				} else if i := at % len(cp.Window); at%2 == 0 {
					cp.Window[i].Src = v
				} else {
					cp.Window[i].Dst = v
				}
			case 7:
				cp.Window = cp.Window[:at%(len(cp.Window)+1)]
			case 8:
				if cp.Pending == nil {
					cp.Pending = &workload.Demand{N: 60, Pairs: []workload.PairCount{{Src: 1, Dst: 2, Count: 1}}, Total: 1}
				}
				d := cp.Pending
				pc := &d.Pairs[at%len(d.Pairs)]
				switch at % 5 {
				case 0:
					pc.Src = v
				case 1:
					pc.Dst = v
				case 2:
					pc.Count = int64(v)
				case 3:
					d.N = v
				case 4:
					d.Total = int64(v)
				}
			}
		}
		if err := net.Restore(&cp); err != nil {
			for i, rq := range reqs[100:] {
				if got, want := net.Serve(rq.Src, rq.Dst), twin.Serve(rq.Src, rq.Dst); got != want {
					t.Fatalf("failed restore (%v) changed the net: request %d costs %+v, its twin %+v", err, 100+i, got, want)
				}
			}
			if got, want := net.Tree().Render(), twin.Tree().Render(); got != want {
				t.Fatalf("failed restore (%v) changed the net's topology", err)
			}
			return
		}
		if err := net.Tree().Validate(); err != nil {
			t.Fatalf("restore accepted a tree that fails Validate: %v", err)
		}
		for _, rq := range reqs {
			net.Serve(rq.Src, rq.Dst)
		}
		if err := net.Tree().Validate(); err != nil {
			t.Fatalf("a restored net served into an invalid tree: %v", err)
		}
	})
}

// TestCheckpointEdgeTrackingCarriedOver mirrors ReplaceTree's contract:
// the restored tree inherits the net's edge-tracking setting and the
// swapped-out tree's tracked churn is retired, keeping LinkChurn
// monotone across a restore.
func TestCheckpointEdgeTrackingCarriedOver(t *testing.T) {
	net, err := New("kary", mustTree(t, 40, 3), Always(), Splay())
	if err != nil {
		t.Fatal(err)
	}
	net.SetTrackEdges(true)
	reqs := checkpointTrace(40, 300, 13)
	for _, rq := range reqs[:150] {
		net.Serve(rq.Src, rq.Dst)
	}
	var cp Checkpoint
	if err := net.CheckpointInto(&cp); err != nil {
		t.Fatal(err)
	}
	churnAt := net.LinkChurn()
	if churnAt == 0 {
		t.Fatal("no tracked churn before the restore; the carry-over test is vacuous")
	}
	for _, rq := range reqs[150:] {
		net.Serve(rq.Src, rq.Dst)
	}
	if err := net.Restore(&cp); err != nil {
		t.Fatal(err)
	}
	if got := net.LinkChurn(); got < churnAt {
		t.Errorf("LinkChurn regressed across restore: %d then %d", churnAt, got)
	}
	base := net.LinkChurn()
	for _, rq := range reqs[150:] {
		net.Serve(rq.Src, rq.Dst)
	}
	if net.LinkChurn() == base {
		t.Error("restored tree does not track edges")
	}
}
