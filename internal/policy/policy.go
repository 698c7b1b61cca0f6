// Package policy factors every self-adjusting network in this repository
// along the axis the self-adjusting-networks literature makes explicit
// (Avin & Schmid, "Toward Demand-Aware Networking"; Feder et al.'s lazy
// SANs): route each request on the current topology, then decide *when*
// to restructure (the Trigger) and *how* (the Adjuster). A policy Net is
// the composition of the two over a routed substrate:
//
//	Net = topology × (Trigger, Adjuster)
//
// The repository's concrete designs are canonical points in that plane:
//
//	k-ary SplayNet        = balanced k-ary tree × (Always, Splay)
//	semi-splay ablation   = balanced k-ary tree × (Always, SemiSplay)
//	lazy net              = balanced k-ary tree × (Alpha, Rebuild)
//	(k+1)-SplayNet        = centroid topology   × (Always, centroid splay)
//	binary SplayNet       = binary substrate    × (Always, double splay)
//	static trees          = any tree            × (Never, None)
//
// and every other cell of the plane — lazy k-ary splay, periodic
// semi-splay, frozen-after-warmup — is a new network design that costs
// one composition instead of one package. NewKArySplayNet and NewLazy
// construct the two canonical k-ary designs, NewBalanced any other
// composition on the balanced k-ary tree, and New with Never × None
// serves any tree as a static network.
//
// # Contract
//
// Triggers observe every served non-self-loop request (self-loops cost
// nothing, adjust nothing, and are invisible to the policy) and decide
// whether the adjuster runs; they are reset after every adjustment.
// Adjusters restructure the substrate and return the adjustment cost
// charged under the paper's model (one unit per rotation for the splay
// family, links added plus removed for rebuilds). Between firings the
// topology is immutable, which is what makes the static-stretch fast
// path sound: after a long enough run of declined requests a tree-backed
// Net routes through the Euler-tour/RMQ distance oracle instead of
// walking parent pointers. A frozen composition (Never) never leaves its
// first static stretch, and StaticOracle hands its oracle to the serving
// layer's lock-free frozen shards.
//
// Like every serve path in this repository, a Net is not safe for
// concurrent Serve calls: the underlying tree owns the rotation scratch
// buffers and the Net owns the request window and churn scratch (see
// DESIGN.md §8). Splay-family compositions preserve the zero-allocation
// steady-state serve contract.
package policy

// Topology is the substrate contract for compositions that are not
// backed by a core.Tree (the binary splaynet is the in-repo example).
// Route computes the routing cost of the request (u, v), u != v, on the
// current structure and stashes whatever context its paired adjusters
// need for a potential Adjust call on the same request. Tree-backed nets
// do not use this interface; New wires the core.Tree route path
// directly.
type Topology interface {
	// N returns the number of nodes (ids 1..N).
	N() int
	// Route returns the routing cost of u→v on the current structure.
	Route(u, v int, ctx *Ctx) int64
}
