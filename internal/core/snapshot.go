package core

import "fmt"

// Snapshot is the flat wire form of a Tree: the arena's backing arrays,
// copied verbatim. Because the arena already stores the whole topology in
// three fields (root, parent links, interleaved child/threshold spans),
// checkpointing a tree is a handful of bulk copies with no per-node
// encoding step — this is the serialization format a sharded front-end
// persists and restores (ROADMAP item 1).
//
// The layout matches the arena exactly: node id i owns Parent[i] (0 = root)
// and the span RC[(i−1)·(2K−1) : i·(2K−1)] = kid0 thr0 kid1 thr1 … kid(K−1),
// child indices at even in-span offsets (0 = empty slot) and cut-space
// thresholds at odd offsets; Parent[0] is unused.
type Snapshot struct {
	K      int
	N      int
	Root   int32
	Parent []int32
	RC     []int32
}

// Snapshot copies the tree's flat arena state. The copy is deep: mutating
// the tree afterwards does not disturb the snapshot, and vice versa.
// Counters and scratch buffers are transient serving state and are
// deliberately not part of the wire form.
func (t *Tree) Snapshot() Snapshot {
	var s Snapshot
	t.SnapshotInto(&s)
	return s
}

// SnapshotInto overwrites s with the tree's flat arena state, reusing s's
// backing arrays when they have the capacity. This is the periodic-
// checkpoint entry point (internal/serve): a shard that snapshots the
// same tree every K requests pays two bulk copies per checkpoint and no
// steady-state allocations.
func (t *Tree) SnapshotInto(s *Snapshot) {
	s.K = t.k
	s.N = t.n
	s.Root = t.root
	s.Parent = append(s.Parent[:0], t.parent...)
	// parent[0] is a rebuild scratch cell (the branchless parent-update
	// loops park empty slots there); normalize it out of the wire form.
	s.Parent[0] = 0
	s.RC = append(s.RC[:0], t.rc...)
}

// FromSnapshot reconstructs a Tree from a snapshot, re-validating every
// structural invariant (a corrupted or hand-crafted snapshot is rejected,
// never served). The round trip Snapshot → FromSnapshot yields a tree whose
// Render, Parents and distance answers are bit-identical to the original's.
func FromSnapshot(s Snapshot) (*Tree, error) {
	t, err := restore(s)
	if err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// restore copies a snapshot into a new arena after checking its sizes
// and that every link indexes the arena, so that Validate can read it.
func restore(s Snapshot) (*Tree, error) {
	if err := CheckIDRange(s.N, s.K); err != nil {
		return nil, err
	}
	if len(s.Parent) != s.N+1 {
		return nil, fmt.Errorf("core: snapshot has %d parent entries, want %d", len(s.Parent), s.N+1)
	}
	if len(s.RC) != s.N*(2*s.K-1) {
		return nil, fmt.Errorf("core: snapshot has %d span entries, want %d", len(s.RC), s.N*(2*s.K-1))
	}
	if s.Root < 1 || int(s.Root) > s.N {
		return nil, fmt.Errorf("core: snapshot root %d out of range 1..%d", s.Root, s.N)
	}
	t := newArena(s.N, s.K)
	t.root = s.Root
	copy(t.parent, s.Parent)
	t.parent[0] = 0
	copy(t.rc, s.RC)
	for id := 1; id <= s.N; id++ {
		if p := t.parent[id]; p < 0 || int(p) > s.N {
			return nil, fmt.Errorf("core: snapshot parent of %d out of range: %d", id, p)
		}
		sp := t.span(int32(id))
		for i := 0; i < len(sp); i += 2 {
			if ch := sp[i]; ch < 0 || int(ch) > s.N {
				return nil, fmt.Errorf("core: snapshot child slot %d of node %d out of range: %d", i/2, id, ch)
			}
		}
	}
	return t, nil
}
