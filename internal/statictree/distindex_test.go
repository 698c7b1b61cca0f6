package statictree

import (
	"testing"

	"github.com/ksan-net/ksan/internal/core"
)

// TestDistIndexMatchesTreeDistance checks the Euler-tour/RMQ oracle
// against the pointer-walking reference on every node pair of assorted
// topologies, including the degenerate path.
func TestDistIndexMatchesTreeDistance(t *testing.T) {
	for _, cfg := range []struct {
		n, k int
	}{{1, 2}, {2, 3}, {17, 2}, {40, 3}, {63, 5}, {100, 10}} {
		trees := map[string]*core.Tree{}
		tr, err := core.NewBalanced(cfg.n, cfg.k)
		if err != nil {
			t.Fatal(err)
		}
		trees["balanced"] = tr
		if rnd, err := core.NewRandom(cfg.n, cfg.k, int64(cfg.n)); err == nil {
			trees["random"] = rnd
		}
		if p, err := core.NewPath(cfg.n, cfg.k); err == nil {
			trees["path"] = p
		}
		for name, tr := range trees {
			ix := NewDistIndex(tr)
			for u := 1; u <= tr.N(); u++ {
				for v := 1; v <= tr.N(); v++ {
					if got, want := ix.Dist(u, v), int64(tr.DistanceID(u, v)); got != want {
						t.Fatalf("%s n=%d k=%d: dist(%d,%d)=%d, tree says %d", name, cfg.n, cfg.k, u, v, got, want)
					}
				}
			}
		}
	}
}
