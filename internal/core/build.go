package core

import (
	"math/rand"
	"sort"
)

// NewBalanced constructs a weakly-complete (all levels full except possibly
// the last, which is packed to the left) k-ary search tree network on ids
// 1..n. This is the usual demand-oblivious initial topology. It writes
// the arena directly (PlaceBalanced), with no Spec.
func NewBalanced(n, k int) (*Tree, error) {
	t, root, err := Arena(nil, n, k)
	if err != nil {
		return nil, err
	}
	t.PlaceBalanced(root, 1, n)
	return t, nil
}

// PlaceBalanced writes the weakly-complete k-ary search tree on the ids
// lo..hi (lo ≤ hi) into slot s. The root's id doubles as its first
// routing element (routing-based placement): slot 0 holds the ids below
// it, and every later non-empty child slot ends at its last id, except
// the last child's, which is open-ended. The scratch for a node's
// routing elements is allocated once per call, not per node.
func (t *Tree) PlaceBalanced(s Slot, lo, hi int) {
	t.placeBalanced(s, lo, hi, make([]int, 0, t.k))
}

func (t *Tree) placeBalanced(s Slot, lo, hi int, ths []int) {
	w := weaklyComplete(hi-lo, t.k)
	id := lo + w.size(0)
	ths = append(ths[:0], id)
	end := id
	for q := 1; q < t.k && w.size(q) > 0; q++ { // sizes only shrink
		end += w.size(q)
		ths = append(ths, end)
	}
	f := t.Place(s, id, ths[:len(ths)-1])
	// ths is free again: the children's bounds come from the sizes.
	if id > lo {
		t.placeBalanced(f.Child(0), lo, id-1, ths)
	}
	start := id + 1
	for q := 1; q < t.k && w.size(q) > 0; q++ {
		t.placeBalanced(f.Child(q), start, start+w.size(q)-1, ths)
		start += w.size(q)
	}
}

// WeaklyCompleteSizes splits c nodes into k subtree sizes of a
// weakly-complete k-ary tree: all subtrees share the same full interior of
// height h−1 and the c − k·F(h−1) nodes of the last level are packed into
// the leftmost subtrees. F(h) = 1 + k + ... + k^(h−1).
func WeaklyCompleteSizes(c, k int) []int {
	sizes := make([]int, k)
	w := weaklyComplete(c, k)
	for i := range sizes {
		sizes[i] = w.size(i)
	}
	return sizes
}

// wcShape is c nodes split into k weakly-complete subtrees: each holds
// full = F(h−1) interior nodes, and the last nodes of the last level
// fill the subtrees left to right, at most lastCap = k^(h−1) each.
type wcShape struct{ full, lastCap, last int }

func weaklyComplete(c, k int) wcShape {
	w := wcShape{lastCap: 1}
	for k*(w.full+w.lastCap) < c {
		w.full += w.lastCap
		w.lastCap *= k
	}
	w.last = c - k*w.full
	return w
}

// size is the node count of subtree q.
func (w wcShape) size(q int) int {
	return w.full + min(max(w.last-q*w.lastCap, 0), w.lastCap)
}

// NewPath constructs the degenerate path topology 1→2→…→n (each node has a
// single child). It is the worst-case initial network used by the initial-
// topology ablation.
func NewPath(n, k int) (*Tree, error) {
	if err := CheckIDRange(n, k); err != nil {
		return nil, err
	}
	var spec *Spec
	for id := n; id >= 1; id-- {
		if spec == nil {
			spec = &Spec{ID: id}
		} else {
			spec = &Spec{ID: id, Thresholds: []int{id}, Children: []*Spec{nil, spec}}
		}
	}
	return Build(k, spec)
}

// NewRandom constructs a random valid k-ary search tree network: each
// subtree draws a random root id from its interval and splits the remaining
// ids into a random number of contiguous child intervals. Used by property
// tests and the initial-topology ablation.
func NewRandom(n, k int, seed int64) (*Tree, error) {
	if err := CheckIDRange(n, k); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	return Build(k, randomSpec(1, n, k, rng))
}

func randomSpec(lo, hi, k int, rng *rand.Rand) *Spec {
	m := hi - lo + 1
	if m <= 0 {
		return nil
	}
	id := lo + rng.Intn(m)
	left, right := id-lo, hi-id

	// Number of child intervals on each side of the root id. The slot layout
	// is [p left parts (the last one also spanning the root id), q right
	// parts], so the threshold count is p+q−1 (or q when p=0, with an empty
	// slot for the bare root id; or p−1 when q=0, with the last left slot
	// open-ended through hi).
	p, q := 0, 0
	if left > 0 {
		maxP := k
		if right > 0 {
			maxP = k - 1 // reserve a slot for the right side
		}
		p = 1 + rng.Intn(min(maxP, left))
	}
	if right > 0 {
		maxQ := k - p
		if p == 0 {
			maxQ = k - 1 // the bare root-id slot consumes one position
		}
		q = 1 + rng.Intn(min(maxQ, right))
	}

	spec := &Spec{ID: id}
	if p > 0 {
		ends := randomCuts(lo, id-1, p, rng)
		slotLo := lo
		for i, e := range ends {
			spec.Children = append(spec.Children, randomSpec(slotLo, e, k, rng))
			switch {
			case i < p-1:
				spec.Thresholds = append(spec.Thresholds, e)
			case right > 0:
				spec.Thresholds = append(spec.Thresholds, id)
			}
			slotLo = e + 1
		}
	} else if right > 0 {
		// Slot 0 holds only the root id; it stays empty.
		spec.Thresholds = append(spec.Thresholds, id)
		spec.Children = append(spec.Children, nil)
	}
	if q > 0 {
		ends := randomCuts(id+1, hi, q, rng)
		slotLo := id + 1
		for i, e := range ends {
			spec.Children = append(spec.Children, randomSpec(slotLo, e, k, rng))
			if i < q-1 {
				spec.Thresholds = append(spec.Thresholds, e)
			}
			slotLo = e + 1
		}
	}
	if len(spec.Children) == 0 {
		spec.Children = nil // leaf
	}
	return spec
}

// randomCuts divides [lo,hi] into parts non-empty contiguous pieces and
// returns the (sorted) end id of each piece; the last entry is always hi.
func randomCuts(lo, hi, parts int, rng *rand.Rand) []int {
	m := hi - lo + 1
	ends := make([]int, 0, parts)
	if parts <= 1 {
		return append(ends, hi)
	}
	perm := rng.Perm(m - 1)[:parts-1]
	for _, g := range perm {
		ends = append(ends, lo+g)
	}
	ends = append(ends, hi)
	sort.Ints(ends)
	return ends
}
