package policy

import "github.com/ksan-net/ksan/internal/core"

// linkChurn counts links added plus removed between two topologies on
// the same node set — the model's raw reconfiguration cost, charged by
// rebuild adjusters. It is the size of the symmetric difference of the
// two undirected link sets.
//
// Every link of a tree is {x, p(x)} for exactly one child x, so one pass
// over the old tree's parent array finds the links that survive: {x, p(x)}
// is in the fresh tree iff it keeps x under p(x) or hangs p(x) under x.
// Both trees have n−1 links, so each side holds n−1−common the other
// lacks. The pass is O(n) and allocates nothing.
func linkChurn(old, fresh *core.Tree) int64 {
	n := old.N()
	common := 0
	for id := 1; id <= n; id++ {
		par := old.NodeByID(id).Parent()
		if par == nil {
			continue
		}
		if fp := fresh.NodeByID(id).Parent(); fp != nil && fp.ID() == par.ID() {
			common++
		} else if fp := fresh.NodeByID(par.ID()).Parent(); fp != nil && fp.ID() == id {
			common++
		}
	}
	return 2 * int64(n-1-common)
}
