// Policies: every self-adjusting network in this library factors into
// "route on the current tree, then decide when and how to restructure" —
// a Trigger × Adjuster composition over a topology. This example walks
// the policy plane on one workload:
//
//   - the canonical corners (the fully reactive k-ary SplayNet, the lazy
//     rebuild net, the frozen balanced tree) recovered as compositions;
//   - the points in between that the decoupling makes free — lazy k-ary
//     splay, periodic semi-splay, frozen-after-warmup;
//   - the same compositions as data: a NetworkDef with a policy field,
//     ready for `ksanbench -experiment file.json`.
package main

import (
	"bytes"
	"fmt"
	"log"

	"github.com/ksan-net/ksan"
)

func main() {
	const n, k = 255, 4
	tr := ksan.TemporalWorkload(n, 30_000, 0.75, 7)
	fmt.Printf("workload: %s (%d requests over %d nodes)\n\n", tr.Name, tr.Len(), n)

	compositions := []struct {
		note string
		trig ksan.PolicyTrigger
		adj  ksan.PolicyAdjuster
	}{
		{"the k-ary SplayNet", ksan.TriggerAlways(), ksan.AdjusterSplay()},
		{"rotation-repertoire ablation", ksan.TriggerAlways(), ksan.AdjusterSemiSplay()},
		{"periodic semi-splay", ksan.TriggerEveryM(4), ksan.AdjusterSemiSplay()},
		{"lazy k-ary splay", ksan.TriggerAlpha(60_000), ksan.AdjusterSplay()},
		{"the lazy net", ksan.TriggerAlpha(60_000), ksan.AdjusterRebuild("weight-balanced", ksan.WeightBalancedTree)},
		{"frozen after warmup", ksan.TriggerFirst(3_000), ksan.AdjusterSplay()},
		{"static balanced tree", ksan.TriggerNever(), ksan.AdjusterNone()},
	}
	fmt.Printf("%-28s %-28s %10s %10s %10s\n", "composition", "note", "routing", "adjust", "total")
	for _, c := range compositions {
		tree, err := ksan.NewBalancedTree(n, k)
		if err != nil {
			log.Fatal(err)
		}
		label := fmt.Sprintf("%s×%s", c.trig.Name(), c.adj.Name())
		net, err := ksan.NewPolicyNet(label, tree, c.trig, c.adj)
		if err != nil {
			log.Fatal(err)
		}
		res := ksan.Run(net, tr.Reqs)
		fmt.Printf("%-28s %-28s %10d %10d %10d\n", label, c.note, res.Routing, res.Adjust, res.Total())
	}

	// The same plane, file-addressable: kind picks the topology family,
	// the policy field picks the composition.
	x := &ksan.Experiment{
		Name: "policy-plane",
		Networks: []ksan.NetworkDef{
			{Kind: "kary", K: k}, // canonical: always × splay
			{Kind: "kary", K: k, Policy: &ksan.PolicyDef{Trigger: "alpha", Alpha: 60_000, Adjuster: "splay"}},
			{Kind: "kary", K: k, Policy: &ksan.PolicyDef{Trigger: "first", M: 3_000, Adjuster: "splay"}},
			{Kind: "centroid-tree", K: k}, // canonical: never × none (frozen, oracle-served)
		},
		Traces: []ksan.TraceDef{{Kind: "temporal", N: n, M: 30_000, P: 0.75, Seed: 7}},
	}
	var buf bytes.Buffer
	if err := x.Encode(&buf); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nas an experiment document (ksanbench -experiment):\n%s", buf.String())
}
