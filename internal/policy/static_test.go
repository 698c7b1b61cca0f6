package policy_test

import (
	"testing"

	"github.com/ksan-net/ksan/internal/policy"
	"github.com/ksan-net/ksan/internal/statictree"
	"github.com/ksan-net/ksan/internal/workload"
)

func TestFrozenNetServesDistances(t *testing.T) {
	tree, err := statictree.Full(31, 2)
	if err != nil {
		t.Fatal(err)
	}
	net, err := policy.New("full-31", tree, policy.Never(), policy.None())
	if err != nil {
		t.Fatal(err)
	}
	if net.Name() != "full-31" || net.N() != 31 {
		t.Errorf("metadata wrong: %q %d", net.Name(), net.N())
	}
	c := net.Serve(1, 31)
	if c.Routing != int64(tree.DistanceID(1, 31)) {
		t.Errorf("routing %d != distance %d", c.Routing, tree.DistanceID(1, 31))
	}
	if c.Adjust != 0 {
		t.Error("static net adjusted")
	}
	if net.Tree() != tree {
		t.Error("Tree() must return the wrapped topology")
	}
}

func TestFrozenNetTopologyNeverChanges(t *testing.T) {
	tree, err := statictree.Centroid(40, 3)
	if err != nil {
		t.Fatal(err)
	}
	before := tree.Parents()
	net, err := policy.New("centroid", tree, policy.Never(), policy.None())
	if err != nil {
		t.Fatal(err)
	}
	tr := workload.Zipf(40, 3000, 1.3, 1)
	run(t, net, tr.Reqs)
	after := tree.Parents()
	for id := range before {
		if before[id] != after[id] {
			t.Fatalf("static topology changed at node %d", id)
		}
	}
}
