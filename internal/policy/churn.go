package policy

import "github.com/ksan-net/ksan/internal/core"

// linkChurn counts links added plus removed between two topologies on
// the same node set — the model's raw reconfiguration cost, charged by
// rebuild adjusters. It is the size of the symmetric difference of the
// two undirected link sets: both trees have n−1 links, so each side
// holds n−1−shared the other lacks. core.Tree.SharedLinks counts the
// shared ones in one O(n) pass over the two parent arrays, allocating
// nothing.
func linkChurn(old, fresh *core.Tree) int64 {
	return 2 * int64(old.N()-1-old.SharedLinks(fresh))
}
