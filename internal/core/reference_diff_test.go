package core

import (
	"math/rand"
	"testing"
)

// TestArenaMatchesPointerReference drives the arena tree and the naive
// pointer-linked reference (reference_test.go) with identical random
// splay/semi-splay sequences — the exact movement repertoire of the online
// networks — and demands bit-identical renderings, parent vectors and
// distance/LCA answers after every operation. Run under -race in CI, this
// is the differential safety net for the index-surgery rebuilds: any
// divergence in block placement, parent rewiring, threshold ordering or
// root handoff surfaces as a first-divergence diff with the full seed.
//
// The wide-k configurations reach the regime where spans and merges are
// bisected and spans move by memmove: k=16 and k=32, whose spans hold an
// odd number of thresholds (15, 31), and k=33, whose spans and merges
// all hold an even number (32, 64, 96). They run fewer requests and
// seeds, because every check renders all n·(2k−1) span entries twice.
func TestArenaMatchesPointerReference(t *testing.T) {
	configs := []struct {
		n, k  int
		ops   int // requests per seed (60 under -short)
		seeds int64
	}{
		{7, 2, 300, 4}, {25, 2, 300, 4}, {40, 3, 300, 4}, {90, 3, 300, 4},
		{64, 4, 300, 4}, {130, 5, 300, 4}, {60, 7, 300, 4},
		{60, 16, 120, 2}, {100, 32, 80, 2}, {110, 33, 80, 2},
	}
	for _, cfg := range configs {
		for _, policy := range []BlockPolicy{BlockCentered, BlockLeftmost} {
			for seed := int64(1); seed <= cfg.seeds; seed++ {
				tr, err := NewBalanced(cfg.n, cfg.k)
				if err != nil {
					t.Fatal(err)
				}
				tr.SetBlockPolicy(policy)
				ref := newRefTree(tr)
				rng := rand.New(rand.NewSource(seed))

				ops := cfg.ops
				if testing.Short() {
					ops = min(ops, 60)
				}
				for op := 0; op < ops; op++ {
					u := 1 + rng.Intn(cfg.n)
					v := 1 + rng.Intn(cfg.n)
					if u == v {
						continue
					}
					// The k-ary SplayNet request pattern: source to the
					// LCA's position, destination under the source —
					// alternating the single- and double-step repertoires.
					a, b := tr.NodeByID(u), tr.NodeByID(v)
					_, w := tr.DistanceLCA(a, b)
					ra, rb, rw := ref.byID[u], ref.byID[v], ref.byID[w.ID()]
					if op%2 == 0 {
						tr.SplayUntilParent(a, w.Parent())
						ref.splayUntilParent(ra, parentRef(rw))
						tr.SplayUntilParent(b, a)
						ref.splayUntilParent(rb, ra)
					} else {
						tr.SemiSplayUntilParent(a, w.Parent())
						ref.semiSplayUntilParent(ra, parentRef(rw))
						tr.SemiSplayUntilParent(b, a)
						ref.semiSplayUntilParent(rb, ra)
					}

					if got, want := tr.Render(), ref.render(); got != want {
						t.Fatalf("n=%d k=%d policy=%v seed=%d op=%d (%d→%d): renderings diverge\narena:\n%s\nreference:\n%s",
							cfg.n, cfg.k, policy, seed, op, u, v, got, want)
					}
					gp, wp := tr.Parents(), ref.parents()
					for id := range gp {
						if gp[id] != wp[id] {
							t.Fatalf("n=%d k=%d policy=%v seed=%d op=%d: parent of %d diverges: arena %d, reference %d",
								cfg.n, cfg.k, policy, seed, op, id, gp[id], wp[id])
						}
					}
					// Distance/LCA spot checks on random pairs.
					for q := 0; q < 8; q++ {
						x := 1 + rng.Intn(cfg.n)
						y := 1 + rng.Intn(cfg.n)
						d, lca := tr.DistanceLCA(tr.NodeByID(x), tr.NodeByID(y))
						rd, rlca := ref.distanceLCA(x, y)
						if d != rd || lca.ID() != rlca {
							t.Fatalf("n=%d k=%d policy=%v seed=%d op=%d: DistanceLCA(%d,%d) diverges: arena (%d,%d), reference (%d,%d)",
								cfg.n, cfg.k, policy, seed, op, x, y, d, lca.ID(), rd, rlca)
						}
					}
				}
				if err := tr.Validate(); err != nil {
					t.Fatalf("n=%d k=%d policy=%v seed=%d: final arena tree invalid: %v",
						cfg.n, cfg.k, policy, seed, err)
				}
			}
		}
	}
}

func parentRef(rn *refNode) *refNode {
	if rn == nil {
		return nil
	}
	return rn.parent
}

// TestReferenceSharesPlacementHelpers pins the full-array specialization
// argument directly: with every routing array at exactly k−1 elements, the
// generic blockSize the reference uses must degenerate to the constant
// k−1 block width the arena rebuilds hard-code.
func TestReferenceSharesPlacementHelpers(t *testing.T) {
	for k := 2; k <= 9; k++ {
		for d := 2; d <= 3; d++ {
			avail := d * (k - 1)
			for i := 0; i < d-1; i++ {
				if got := blockSize(avail-i*(k-1), d-i, k-1); got != k-1 {
					t.Fatalf("blockSize(%d, %d, %d) = %d, want %d", avail-i*(k-1), d-i, k-1, got, k-1)
				}
			}
		}
	}
}
