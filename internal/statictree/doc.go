// Package statictree implements the offline/static demand-aware network
// designs of Section 3 of the paper plus the demand-oblivious baseline:
//
//   - Solver / Optimal: the O(n³·k) dynamic program for an optimal static
//     routing-based k-ary search tree network (Theorem 2/15), with the
//     dp2 prefix-minimum trick from the proof, flattened triangular
//     tables shared across an arity sweep (row-major, plus a column-major
//     copy of plane 1, the plane every min-plus pass reads down a
//     column), hole planes that turn the root search into the same
//     branch-free min-plus passes as the forest planes (2k−3 per segment
//     on any demand; Knuth-style root windows are unsound for this cost —
//     see dp.go), and a parallel fill of the long diagonals on one worker
//     pool per solve,
//   - UniformSolver / OptimalUniform: the dynamic program for the
//     uniform workload (Theorem 4), which optimizes over tree shapes and
//     imposes the search property afterwards, in O(n²·log k), tightening
//     the theorem's O(n²·k): a forest's cost does not depend on the order
//     of its trees, so the search for the best forest of t trees on L
//     nodes need only try first trees of up to ⌊L/t⌋ nodes, the size of
//     its smallest; both DPs share one min-plus kernel,
//   - Centroid: the O(n) centroid k-ary search tree (Theorem 8/35) built
//     from a (k+1)-degree centroid tree re-rooted at a leaf,
//   - Full: the weakly-complete (full) k-ary tree baseline (Lemma 9),
//   - WeightBalanced: a Mehlhorn-style demand-aware approximation for
//     instances beyond the cubic DP's reach, cross-validated against the
//     DP optimum in tests.
//
// All builders return *core.Tree topologies. A frozen policy composition
// (policy.New with Never × None) serves one as a static network whose
// serve cost is the routing distance, through this package's DistIndex
// (static topologies pay no adjustment cost).
package statictree
