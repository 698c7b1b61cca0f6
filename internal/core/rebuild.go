package core

import "fmt"

// BlockPolicy selects where a rebuilt node's block of consecutive routing
// elements is placed relative to its identifier. The default, BlockCentered,
// centers the block on the id; BlockLeftmost always takes the leftmost
// feasible block (the block-placement ablation compares the two).
type BlockPolicy int

const (
	// BlockCentered centers each node's routing-element block on its id.
	BlockCentered BlockPolicy = iota
	// BlockLeftmost takes the leftmost feasible block for each node.
	BlockLeftmost
)

// SetBlockPolicy selects the block-placement strategy used by rotations.
func (t *Tree) SetBlockPolicy(p BlockPolicy) { t.blockPolicy = p }

// The rebuilds below implement the paper's generalized rotation
// (Section 4.1) for the two fragment sizes the splay loops use: merge the d
// routing arrays in in-order, then re-emit the first d-1 nodes bottom-up,
// each taking a block of consecutive routing elements whose induced gap
// covers its identifier; the final (deepest) node takes the remaining
// elements and the fragment's slot at the old parent. With d=2 this is
// k-semi-splay (the zig generalization); with d=3 it is k-splay (the
// zig-zig/zig-zag generalization).
//
// Node identifiers never change; only routing arrays and adjacency do — in
// the arena representation a rotation is pure index surgery over the
// interleaved spans. A node's span is its own in-order expansion
// (kid0 thr0 kid1 … kid(k−1)), so merging the fragment is splicing child
// spans into their slot positions — 3 (d=2) or 5 (d=3) contiguous block
// copies — and a node's re-emitted block of k−1 routing elements plus its
// k induced child slots is ONE contiguous window m[2s : 2s+2k−1] of the
// merge. Because construction pads every routing array to exactly k−1
// elements and rotations preserve fullness, every block is exactly
// full-width (blockSize(d·(k−1), d, k−1) = k−1 identically) and the fixed
// spans never need resizing.
//
// The rebuilds are allocation-free: the merge goes through a per-tree
// scratch slice preallocated at the d=3 maximum. The scratch makes a
// rebuild — and therefore Serve on every tree-backed network —
// non-reentrant per tree.
//
// Empty child slots are index 0, and the parent-update loops deliberately
// write parent[0] instead of branching on emptiness; parent[0] is a
// scratch cell that no reader consults (Snapshot normalizes it to 0).
//
// A rebuild needs to know which slot of its parent each lower fragment
// node sits in. It does not store that per node: the slot a child
// occupies is the one whose interval holds the child's id value (the
// interval invariant Validate checks), so a threshold search over the
// parent's span finds it. The splay loops look x's slot up once and
// carry it: each rebuild takes x's slot in p and returns x's slot in its
// new parent — the old top's slot there, found by the one search the
// rebuild makes anyway to hang x in that span. These searches call
// slotBisect directly, which gc inlines, rather than the per-count span
// kernel: a k-splay step makes two of them, and at k=2 the kernel's
// indirect calls cost the serve grid more than the slot stores saved.

// rebuild2 performs one two-node rebuild (a k-semi-splay step): x, a child
// of p in slot c, takes p's place and p is re-hung in the induced gap of
// x's new routing array. It returns x's slot in its new parent (0 when x
// is now the root).
func (t *Tree) rebuild2(p, x int32, c int) int {
	k := t.k
	w := 2*k - 1 // interleaved span width
	oldParent := t.parent[p]
	if t.trackEdges {
		t.noteLinks(p, x, 0)
	}

	spP, spX := t.span(p), t.span(x)
	par := t.parent

	// In-order merge of the fragment: p's span with x's span spliced into
	// slot c (in-span offset 2c); mov picks scalar or memmove by span
	// length (the profile at k = 32 puts these moves at ~40% of serve
	// time, so the large-k spans must ride memmove).
	m := t.scratch[:2*w-1]
	mov(m[:2*c], spP[:2*c])
	mov(m[2*c:2*c+w], spX)
	mov(m[2*c+w:], spP[2*c+1:])

	// p takes the full-width block whose induced gap covers its id. The
	// placement search over the 2(k−1)-threshold merge runs through the
	// per-arity routing kernel — this is the threshold scan on the serve
	// hot path (every always-splay request rebuilds its whole access
	// path).
	j := t.kMerge2(m, int32(t.idValue(int(p))))
	s := blockStartAt(t.blockPolicy, j, k-1, 2*(k-1))
	mov(spP, m[2*s:2*s+w])
	for i := 0; i < w; i += 2 {
		par[spP[i]] = p
	}

	// x keeps the remainder, with p re-hung in the induced gap.
	mov(spX[:2*s], m[:2*s])
	spX[2*s] = p
	mov(spX[2*s+1:], m[2*s+w:])
	for i := 0; i < w; i += 2 {
		par[spX[i]] = x
	}

	up := t.replaceChild(oldParent, p, x)

	// Elementary-rotation accounting: one parent-child flip, exactly like
	// zig in binary splay trees.
	t.rotations++
	if t.trackEdges {
		t.edgeChanges += t.notedChurn()
	}
	return up
}

// rebuild3 performs one three-node rebuild (a k-splay step): x, a grandchild
// of g through p, moves to the top of the three-node fragment. When the two
// lower blocks end up disjoint the result matches the paper's "first case"
// (both become children of the new top); when the second block's gap
// swallows the first node's gap it matches the "second case" (a chain).
// x sits in slot cp of p; like rebuild2, it returns x's slot in its new
// parent.
func (t *Tree) rebuild3(g, p, x int32, cp int) int {
	k := t.k
	w := 2*k - 1 // interleaved span width
	oldParent := t.parent[g]
	if t.trackEdges {
		t.noteLinks(g, p, x)
	}

	spG, spP, spX := t.span(g), t.span(p), t.span(x)
	cg := slotBisect(spG, int32(t.idValue(int(p))))
	par := t.parent

	// In-order merge: g's span with p's span spliced into slot cg, which in
	// turn holds x's span spliced into slot cp.
	m := t.scratch[:3*w-2]
	mov(m[:2*cg], spG[:2*cg])
	o := 2 * cg
	mov(m[o:o+2*cp], spP[:2*cp])
	o += 2 * cp
	mov(m[o:o+w], spX)
	o += w
	mov(m[o:o+w-2*cp-1], spP[2*cp+1:])
	o += w - 2*cp - 1
	mov(m[o:], spG[2*cg+1:])

	// g takes the first full-width block, then the merge is compacted with
	// g re-hung in its induced gap. Placement searches run through the
	// per-arity routing kernels: the 3(k−1)-threshold merge first, the
	// 2(k−1)-threshold compacted remainder below.
	j := t.kMerge3(m, int32(t.idValue(int(g))))
	s := blockStartAt(t.blockPolicy, j, k-1, 3*(k-1))
	mov(spG, m[2*s:2*s+w])
	for i := 0; i < w; i += 2 {
		par[spG[i]] = g
	}
	m[2*s] = g
	mov(m[2*s+1:], m[2*s+w:])
	m = m[:2*w-1]

	// p takes the next block from the remainder.
	j = t.kMerge2(m, int32(t.idValue(int(p))))
	s = blockStartAt(t.blockPolicy, j, k-1, 2*(k-1))
	mov(spP, m[2*s:2*s+w])
	for i := 0; i < w; i += 2 {
		par[spP[i]] = p
	}

	// x keeps the rest, with p re-hung in the induced gap.
	mov(spX[:2*s], m[:2*s])
	spX[2*s] = p
	mov(spX[2*s+1:], m[2*s+w:])
	for i := 0; i < w; i += 2 {
		par[spX[i]] = x
	}

	up := t.replaceChild(oldParent, g, x)

	// A three-node rebuild lifts the deepest node two levels: the work of
	// two parent-child flips, exactly like zig-zig/zig-zag in binary splay
	// trees.
	t.rotations += 2
	if t.trackEdges {
		t.edgeChanges += t.notedChurn()
	}
	return up
}

// replaceChild hangs x where the fragment's old top sat: as the root when
// the top had no parent, else in the top's slot of its parent op, which
// it returns. The fragment's ids all lie in that slot's interval, so the
// top's id value finds it.
func (t *Tree) replaceChild(op, top, x int32) int {
	t.parent[x] = op
	if op == 0 {
		t.root = x
		return 0
	}
	sp := t.span(op)
	c := slotBisect(sp, int32(t.idValue(int(top))))
	sp[2*c] = x
	return c
}

// SemiSplay performs one k-semi-splay rotation: y, a non-root node, becomes
// the parent of its current parent. It returns an error if y is the root.
func (t *Tree) SemiSplay(y *Node) error {
	p := t.parent[y.ix]
	if p == 0 {
		return fmt.Errorf("core: cannot semi-splay the root (node %d)", y.ix)
	}
	t.rebuild2(p, y.ix, slotBisect(t.span(p), int32(t.idValue(int(y.ix)))))
	return nil
}

// SplayStep performs one k-splay rotation: z, a node with a grandparent,
// moves to the top of the three-node fragment (grandparent, parent, z).
func (t *Tree) SplayStep(z *Node) error {
	p := t.parent[z.ix]
	if p == 0 || t.parent[p] == 0 {
		return fmt.Errorf("core: k-splay needs a grandparent (node %d)", z.ix)
	}
	t.rebuild3(t.parent[p], p, z.ix, slotBisect(t.span(p), int32(t.idValue(int(z.ix)))))
	return nil
}

// blockSize picks the number of routing elements the next rebuilt node
// takes: balanced across the remaining nodes, but always leaving at most
// maxB elements for the nodes still to be placed (feasibility) and never
// exceeding maxB itself. With full routing arrays (avail = rem·maxB) it is
// identically maxB — the specialized rebuilds above rely on exactly that;
// the pointer-reference differential test exercises the general form.
func blockSize(avail, remNodes, maxB int) int {
	b := (avail + remNodes - 1) / remNodes // ceil: balanced share
	if lo := avail - maxB*(remNodes-1); b < lo {
		b = lo
	}
	if b > maxB {
		b = maxB
	}
	if b > avail {
		b = avail
	}
	if b < 0 {
		b = 0
	}
	return b
}

// intervalIndex returns the index of the interval of the sorted element
// array that contains the cut-space value under threshold semantics: the
// number of elements strictly less than the value. (The pointer-reference
// differential test shares it.)
func intervalIndex(elems []int, value int) int {
	j := 0
	for _, e := range elems {
		if e < value {
			j++
		}
	}
	return j
}

// movCopyMin is the element count from which mov routes through copy()
// (runtime.memmove) instead of the scalar loop. gc does not vectorize the
// scalar loop, so it moves 4 bytes per iteration while memmove moves whole
// vector registers; only for the very shortest spans does the memmove call
// overhead lose to a handful of scalar stores. BenchmarkMov measures the
// crossover on the exact lengths the rebuilds move: scalar wins at n=3
// (1.7 vs 2.2 ns), copy wins from n=9 up (2.7 vs 7.6 ns) and by n=63 — the
// k=32 span, where these moves are ~40% of serve time — is ~8× faster
// (4.7 vs 36.1 ns). 4 keeps the k=2 span and sub-span slivers scalar and
// routes everything else through memmove.
const movCopyMin = 4

// mov copies src into dst[:len(src)]: a forward scalar loop for short
// spans, copy() beyond movCopyMin. Both forms handle the one overlapping
// use (the d=3 compaction shifts left — forward scalar order is safe, and
// copy is memmove).
func mov(dst, src []int32) {
	if len(src) >= movCopyMin {
		copy(dst, src)
		return
	}
	_ = dst[:len(src)]
	for i := 0; i < len(src); i++ {
		dst[i] = src[i]
	}
}

// blockStartAt chooses the starting index of a b-element block such that the
// induced gap (the merged interval left after removing the block) contains
// the id sitting in interval j. Feasible starts are [max(0,j-b), min(j,L-b)].
// It is a pure function of the policy so the arena rebuild and the
// pointer-reference differential test share one implementation.
func blockStartAt(policy BlockPolicy, j, b, L int) int {
	lo := j - b
	if lo < 0 {
		lo = 0
	}
	hi := j
	if hi > L-b {
		hi = L - b
	}
	if policy == BlockLeftmost {
		return lo
	}
	s := j - b/2
	if s < lo {
		s = lo
	}
	if s > hi {
		s = hi
	}
	return s
}

// noteLinks records, before a tracked rebuild of the fragment top, mid
// and low (low is 0 for a two-node fragment), every link the rebuild can
// cut: the top's link to its parent and each fragment node's links to its
// children, the fragment's own links among them. A link is noted as the
// pair (v, p) of a node and its parent. No other link changes, since the
// rebuild rewires only the fragment's nodes, their children and the
// top's slot in its parent.
func (t *Tree) noteLinks(top, mid, low int32) {
	links := t.links[:0]
	if op := t.parent[top]; op != 0 {
		links = append(links, top, op)
	}
	for _, f := range [3]int32{top, mid, low} {
		if f == 0 {
			break
		}
		sp := t.span(f)
		for i := 0; i < len(sp); i += 2 {
			if ch := sp[i]; ch != 0 {
				links = append(links, ch, f)
			}
		}
	}
	t.links = links
}

// notedChurn returns the links the rebuild after noteLinks added plus
// removed, by the rule SharedLinks applies to rebuild swaps: a noted
// link {v, p} is gone unless v still hangs under p or p under v. A tree
// on n nodes always has n−1 links, so the rebuild added as many as it
// removed.
func (t *Tree) notedChurn() int64 {
	gone := int64(0)
	for i := 0; i < len(t.links); i += 2 {
		if v, p := t.links[i], t.links[i+1]; t.parent[v] != p && t.parent[p] != v {
			gone++
		}
	}
	return 2 * gone
}
