package policy

import (
	"testing"

	"github.com/ksan-net/ksan/internal/core"
	"github.com/ksan-net/ksan/internal/statictree"
	"github.com/ksan-net/ksan/internal/workload"
)

// BenchmarkLazyFiring times one firing of the lazy net's rebuild on the
// lazy serving workload's shape: n=4095, k=4, and a window of 2 260
// hotspot requests, the mean stretch between alpha-20000 firings. It
// times the adjuster alone, not the serves that fill its window.
// point-weights is rebuild-wb's adjuster; demand-builder is the generic
// Rebuild over statictree's WeightBalancer, which sorts the window into
// pairs, evaluates the new tree's total distance and allocates a new
// arena.
func BenchmarkLazyFiring(b *testing.B) {
	const n, k = 4095, 4
	window := workload.MustCollect(workload.HotspotGen(n, 2260, 0.1, 0.9, 1)).Reqs
	for _, a := range []struct {
		name string
		adj  Adjuster
	}{
		{"point-weights", RebuildWeightBalanced("rebuild-wb")},
		{"demand-builder", Rebuild("rebuild-wb", new(statictree.WeightBalancer).Build)},
	} {
		b.Run(a.name, func(b *testing.B) {
			t, err := core.NewBalanced(n, k)
			if err != nil {
				b.Fatal(err)
			}
			net, err := New("lazy", t, Alpha(20000), a.adj)
			if err != nil {
				b.Fatal(err)
			}
			ctx := &net.ctx
			ctx.Tree, ctx.Window = net.t, window
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.adj.Adjust(ctx)
			}
		})
	}
}
