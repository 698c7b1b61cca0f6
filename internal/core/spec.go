package core

import "fmt"

// Spec is a declarative description of a k-ary search tree used by the
// static builders (full tree, DP optimum, centroid tree) and by tests.
// Thresholds are given in id space (a threshold t means "ids ≤ t go left of
// this boundary"); Children has len(Thresholds)+1 entries (nil entries
// denote empty slots). As a convenience a leaf may leave Children nil.
//
// Build converts thresholds into the tree's internal scaled cut space and
// pads every routing array to exactly k−1 elements (see Build).
type Spec struct {
	ID         int
	Thresholds []int
	Children   []*Spec
}

// Build materializes a Spec into a Tree with arity bound k, verifying the
// search property and that the identifiers are exactly 1..n.
//
// Internally, routing elements are cuts in a value space scaled by k: id i
// sits at value i·k, and a spec threshold t becomes the cut t·k. Every node
// is then padded to exactly k−1 routing elements with cuts placed in the
// empty sliver just below the node's own id value (which never separates
// two ids, because ids are k apart in cut space). A threshold equal to the
// ancestor threshold that bounds its node's interval is padded for too,
// so that no two nodes share a routing element. Full routing arrays match
// the paper's node model (Fig. 1) and are preserved by rotations, which
// redistribute but never consume routing elements — and they are what makes
// the arena's fixed-stride threshold/child spans sound.
//
// Build allocates the whole arena up front (a handful of flat slices
// instead of one heap object per node) and nothing per node, so spec
// materialization — including the DP solver's result construction —
// costs O(1) allocations in the node count (TestBuildAllocsConstantInN
// pins it). It is BuildInto(nil, k, spec).
func Build(k int, spec *Spec) (*Tree, error) {
	return BuildInto(nil, k, spec)
}

// BuildInto is Build materializing into dst's arena instead of a new
// one, and returns dst; a nil dst allocates a new arena. A non-nil dst
// must have arity k and fixes the node count: the spec must cover
// exactly ids 1..dst.N(). Whatever dst held is overwritten, and its
// counters, edge tracking and block policy return to a new tree's
// defaults. The arena keeps its build marks, so building into the same
// dst again allocates nothing: this is how a rebuilding network swaps
// topologies without garbage. On error dst holds no valid tree but may
// be built into again.
func BuildInto(dst *Tree, k int, spec *Spec) (*Tree, error) {
	if spec == nil {
		return nil, fmt.Errorf("core: nil spec")
	}
	var n int
	if dst != nil {
		n = dst.n
	} else {
		n = countSpec(spec)
	}
	if err := CheckIDRange(n, k); err != nil {
		return nil, err
	}
	t := dst
	if t == nil {
		t = newArena(n, k)
	} else {
		if t.k != k {
			return nil, fmt.Errorf("core: cannot build arity %d into a %d-ary arena", k, t.k)
		}
		t.reset()
	}
	if len(t.seen) != n+1 {
		t.seen = make([]bool, n+1)
	}
	root, err := t.buildSpec(spec, 0, 0, n*k, false, t.seen)
	if err != nil {
		return nil, err
	}
	t.root = root
	for id := 1; id <= n; id++ {
		if !t.seen[id] {
			return nil, fmt.Errorf("core: spec is missing id %d", id)
		}
	}
	return t, nil
}

// reset returns a built arena to a new one's state: no links, no
// routing elements, no build marks, zero counters, default settings.
func (t *Tree) reset() {
	t.root = 0
	clear(t.parent)
	clear(t.rc)
	clear(t.seen)
	t.rotations, t.edgeChanges = 0, 0
	t.trackEdges = false
	t.blockPolicy = BlockCentered
}

// MustBuild is Build for specs known to be valid; it panics on error.
func MustBuild(k int, spec *Spec) *Tree {
	t, err := Build(k, spec)
	if err != nil {
		panic(err)
	}
	return t
}

func countSpec(s *Spec) int {
	if s == nil {
		return 0
	}
	n := 1
	for _, ch := range s.Children {
		n += countSpec(ch)
	}
	return n
}

// specIDRange returns the minimum and maximum id in the spec subtree.
func specIDRange(s *Spec) (lo, hi int) {
	lo, hi = s.ID, s.ID
	for _, ch := range s.Children {
		if ch == nil {
			continue
		}
		clo, chi := specIDRange(ch)
		if clo < lo {
			lo = clo
		}
		if chi > hi {
			hi = chi
		}
	}
	return lo, hi
}

// buildSpec fills in the arena state for s, whose slot covers the cut-space
// interval (lo, hi], and returns the node's arena index; hiElem reports
// that hi is an ancestor's routing element rather than the top cut n·k.
// It writes the node's padded routing array straight into its span and
// places each spec child in the padded slot its index maps to, so
// materialization allocates nothing per node.
func (t *Tree) buildSpec(s *Spec, parent int32, lo, hi int, hiElem bool, seen []bool) (int32, error) {
	iv := s.ID * t.scale
	if s.ID < 1 || s.ID > t.n {
		return 0, fmt.Errorf("core: id %d out of range 1..%d", s.ID, t.n)
	}
	if iv <= lo || iv > hi {
		return 0, fmt.Errorf("core: id %d outside its slot interval", s.ID)
	}
	if seen[s.ID] {
		return 0, fmt.Errorf("core: duplicate id %d", s.ID)
	}
	if len(s.Thresholds) > t.k-1 {
		return 0, fmt.Errorf("core: node %d has %d routing elements, max is %d", s.ID, len(s.Thresholds), t.k-1)
	}
	// A nil Children is a leaf: every slot empty.
	if s.Children != nil && len(s.Children) != len(s.Thresholds)+1 {
		return 0, fmt.Errorf("core: node %d has %d thresholds but %d child slots", s.ID, len(s.Thresholds), len(s.Children))
	}

	// Validate the scaled thresholds as strictly increasing within
	// (lo, hi]. j counts those below the node's own id value — the same
	// strictly-less count the routing kernels compute — so spec slot j is
	// the one that contains it.
	prev, j := lo, 0
	for _, th := range s.Thresholds {
		v := th * t.scale
		if v <= prev {
			return 0, fmt.Errorf("core: node %d thresholds not strictly increasing within its interval", s.ID)
		}
		if v > hi {
			return 0, fmt.Errorf("core: node %d threshold %d exceeds its interval", s.ID, th)
		}
		if v < iv {
			j++
		}
		prev = v
	}

	// A last threshold at the interval's upper bound repeats the ancestor
	// routing element that bounds the interval and carves an always-empty
	// last slot. A rotation merges a node's routing elements with its
	// ancestors' and needs them all distinct (Validate), so such a
	// threshold is padded for instead.
	ths, kids := s.Thresholds, s.Children
	if prev == hi && hiElem {
		nt := len(ths)
		if kids != nil && kids[nt] != nil {
			return 0, fmt.Errorf("core: node %d has a child in an empty slot", s.ID)
		}
		ths = ths[:nt-1]
		if kids != nil {
			kids = kids[:nt]
		}
	}

	// Pad the routing array to exactly k−1 cuts using the empty sliver just
	// below the node's own id value: cuts iv−pad .. iv−1 contain no id
	// points (ids are t.scale apart), so they only carve empty slots. They
	// go in at position j; spec slot j's child then lands left of the pads
	// (padded slot j) when its ids lie below the node id and right of them
	// (padded slot j+pad) when they lie above.
	pad := t.k - 1 - len(ths)
	above := false
	if pad > 0 && kids != nil && kids[j] != nil {
		clo, chi := specIDRange(kids[j])
		if clo <= s.ID && s.ID <= chi {
			return 0, fmt.Errorf("core: node %d cannot pad its routing array: child slot %d spans ids %d..%d across the node id", s.ID, j, clo, chi)
		}
		above = clo > s.ID
	}

	ix := int32(s.ID)
	seen[s.ID] = true
	t.parent[ix] = parent
	sp := t.span(ix)
	for i, th := range ths {
		if i >= j {
			i += pad
		}
		sp[2*i+1] = int32(th * t.scale)
	}
	for p := 0; p < pad; p++ {
		sp[2*(j+p)+1] = int32(iv - pad + p)
	}
	for c, chSpec := range kids {
		if chSpec == nil {
			continue
		}
		i := c // padded slot of spec slot c
		if c > j || c == j && above {
			i += pad
		}
		slotLo, slotHi := lo, hi
		if i > 0 {
			slotLo = int(sp[2*i-1])
		}
		if i < t.k-1 {
			slotHi = int(sp[2*i+1])
		}
		if slotLo >= slotHi {
			return 0, fmt.Errorf("core: node %d has a child in an empty slot", s.ID)
		}
		ch, err := t.buildSpec(chSpec, ix, slotLo, slotHi, hiElem || i < t.k-1, seen)
		if err != nil {
			return 0, err
		}
		sp[2*i] = ch
	}
	return ix, nil
}
