package core

import (
	"math/rand"
	"sort"
)

// NewBalanced constructs a weakly-complete (all levels full except possibly
// the last, which is packed to the left) k-ary search tree network on ids
// 1..n. This is the usual demand-oblivious initial topology.
func NewBalanced(n, k int) (*Tree, error) {
	if err := CheckIDRange(n, k); err != nil {
		return nil, err
	}
	return Build(k, BalancedSpec(1, n, k))
}

// MustNewBalanced is NewBalanced for known-good parameters.
func MustNewBalanced(n, k int) *Tree {
	t, err := NewBalanced(n, k)
	if err != nil {
		panic(err)
	}
	return t
}

// BalancedSpec returns the Spec of a weakly-complete k-ary search tree on
// the id interval [lo,hi]. It returns nil for an empty interval. The root's
// id doubles as its first routing element (routing-based placement), sitting
// between the first child interval and the rest.
func BalancedSpec(lo, hi, k int) *Spec {
	m := hi - lo + 1
	if m <= 0 {
		return nil
	}
	sizes := WeaklyCompleteSizes(m-1, k)
	id := lo + sizes[0]
	spec := &Spec{ID: id}
	// Slot 0 covers (lo-1, id]: the first child's ids plus the root id.
	spec.Thresholds = append(spec.Thresholds, id)
	spec.Children = append(spec.Children, BalancedSpec(lo, id-1, k))
	slotLo := id + 1
	for i := 1; i < len(sizes); i++ {
		if sizes[i] == 0 {
			continue
		}
		end := slotLo + sizes[i] - 1
		spec.Thresholds = append(spec.Thresholds, end)
		spec.Children = append(spec.Children, BalancedSpec(slotLo, end, k))
		slotLo = end + 1
	}
	// Drop the final threshold: the last child lives in the open-ended last
	// slot, keeping the routing array within k-1 entries.
	spec.Thresholds = spec.Thresholds[:len(spec.Thresholds)-1]
	return spec
}

// WeaklyCompleteSizes splits c nodes into k subtree sizes of a
// weakly-complete k-ary tree: all subtrees share the same full interior of
// height h−1 and the c − k·F(h−1) nodes of the last level are packed into
// the leftmost subtrees. F(h) = 1 + k + ... + k^(h−1).
func WeaklyCompleteSizes(c, k int) []int {
	sizes := make([]int, k)
	if c <= 0 {
		return sizes
	}
	full := 0    // F(h-1): nodes in one full subtree of height h-1
	lastCap := 1 // k^(h-1): capacity of one subtree's last level at height h
	for k*(full+lastCap) < c {
		full += lastCap
		lastCap *= k
	}
	last := c - k*full // nodes on the (partial) last level
	for i := range sizes {
		take := last
		if take > lastCap {
			take = lastCap
		}
		if take < 0 {
			take = 0
		}
		sizes[i] = full + take
		last -= take
	}
	return sizes
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
