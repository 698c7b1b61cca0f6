package core

import (
	"math/rand"
	"strings"
	"testing"
)

func splayedTree(t *testing.T, n, k int, seed int64) *Tree {
	t.Helper()
	tr, err := NewBalanced(n, k)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 200; i++ {
		u, v := 1+rng.Intn(n), 1+rng.Intn(n)
		if u == v {
			continue
		}
		a, b := tr.NodeByID(u), tr.NodeByID(v)
		_, w := tr.DistanceLCA(a, b)
		tr.SplayUntilParent(a, w.Parent())
		tr.SplayUntilParent(b, a)
	}
	return tr
}

func TestSnapshotRoundTrip(t *testing.T) {
	for _, cfg := range []struct{ n, k int }{{40, 2}, {90, 3}, {130, 5}} {
		tr := splayedTree(t, cfg.n, cfg.k, int64(cfg.n))
		snap := tr.Snapshot()
		back, err := FromSnapshot(snap)
		if err != nil {
			t.Fatalf("n=%d k=%d: %v", cfg.n, cfg.k, err)
		}
		if got, want := back.Render(), tr.Render(); got != want {
			t.Fatalf("n=%d k=%d: restored rendering diverges\n%s\nvs\n%s", cfg.n, cfg.k, got, want)
		}
		gp, wp := back.Parents(), tr.Parents()
		for id := range gp {
			if gp[id] != wp[id] {
				t.Fatalf("n=%d k=%d: restored parent of %d is %d, want %d", cfg.n, cfg.k, id, gp[id], wp[id])
			}
		}
		for q := 0; q < 50; q++ {
			u, v := 1+q%cfg.n, 1+(q*7)%cfg.n
			if got, want := back.DistanceID(u, v), tr.DistanceID(u, v); got != want {
				t.Fatalf("n=%d k=%d: restored DistanceID(%d,%d) = %d, want %d", cfg.n, cfg.k, u, v, got, want)
			}
		}
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	tr := splayedTree(t, 64, 3, 5)
	snap := tr.Snapshot()
	before := tr.Render()
	// Mutating the tree must not disturb the snapshot...
	tr.SplayUntilParent(tr.NodeByID(50), nil)
	back, err := FromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if back.Render() != before {
		t.Fatal("snapshot changed when the source tree was mutated")
	}
	// ...and mutating a restored tree must not disturb the snapshot either.
	back.SplayUntilParent(back.NodeByID(12), nil)
	back2, err := FromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if back2.Render() != before {
		t.Fatal("snapshot changed when a restored tree was mutated")
	}
}

func TestFromSnapshotRejectsCorruption(t *testing.T) {
	tr := splayedTree(t, 40, 3, 9)
	base := tr.Snapshot()
	corrupt := func(f func(s *Snapshot)) Snapshot {
		s := tr.Snapshot()
		f(&s)
		return s
	}
	cases := []struct {
		label string
		snap  Snapshot
	}{
		{"root out of range", corrupt(func(s *Snapshot) { s.Root = 41 })},
		{"zero root", corrupt(func(s *Snapshot) { s.Root = 0 })},
		{"truncated parents", corrupt(func(s *Snapshot) { s.Parent = s.Parent[:len(s.Parent)-1] })},
		{"truncated spans", corrupt(func(s *Snapshot) { s.RC = s.RC[:len(s.RC)-1] })},
		{"child out of range", corrupt(func(s *Snapshot) { s.RC[0] = 99 })},
		{"parent cycle", corrupt(func(s *Snapshot) { s.Parent[base.Root] = base.Root })},
		{"root as child", corrupt(func(s *Snapshot) { s.RC[0] = s.Root })},
		{"bad arity", corrupt(func(s *Snapshot) { s.K = 1 })},
	}
	for _, tc := range cases {
		if _, err := FromSnapshot(tc.snap); err == nil {
			t.Errorf("%s: corrupted snapshot accepted", tc.label)
		} else if !strings.HasPrefix(err.Error(), "core:") {
			t.Errorf("%s: error %q does not carry the package prefix", tc.label, err)
		}
	}
	if _, err := FromSnapshot(base); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
}

// fromSnapshotSeed is one input of FuzzFromSnapshot: a random tree of
// 1 + nRaw mod 64 nodes and arity 2 + kRaw mod 7, and the mutations of
// its snapshot. Each five bytes of muts are one mutation: a target
// (parent link, span entry, root, arity or node count), a 16-bit index
// and a signed 16-bit value.
type fromSnapshotSeed struct {
	nRaw, kRaw uint8
	seed       int64
	muts       []byte
}

// fromSnapshotSeeds is FuzzFromSnapshot's seed corpus;
// TestValidateMatchesSearchReference runs it through both Validate checks.
var fromSnapshotSeeds = []fromSnapshotSeed{
	{20, 3, 1, []byte{}},
	{20, 3, 1, []byte{0, 5, 0, 0, 0}},       // node 5 loses its parent
	{33, 2, 2, []byte{1, 7, 0, 200, 0}},     // a span entry out of range
	{9, 5, 3, []byte{2, 0, 0, 4, 0}},        // another root
	{40, 4, 4, []byte{1, 1, 0, 2, 0, 3, 0}}, // a threshold moved, then a stray byte
	{56, 0, -54, []byte{1, 1, 0, 2, 0}},     // node 1's threshold repeats its bound
}

// snapshot builds the seed's tree and returns its mutated snapshot.
func (in fromSnapshotSeed) snapshot(t *testing.T) Snapshot {
	t.Helper()
	tr, err := NewRandom(1+int(in.nRaw)%64, 2+int(in.kRaw)%7, in.seed)
	if err != nil {
		t.Fatal(err)
	}
	s := tr.Snapshot()
	for muts := in.muts; len(muts) >= 5; muts = muts[5:] {
		at := int(muts[1]) | int(muts[2])<<8
		v := int32(int16(uint16(muts[3]) | uint16(muts[4])<<8))
		switch muts[0] % 5 {
		case 0:
			s.Parent[at%len(s.Parent)] = v
		case 1:
			s.RC[at%len(s.RC)] = v
		case 2:
			s.Root = v
		case 3:
			s.K = int(v)
		case 4:
			s.N = int(v)
		}
	}
	return s
}

// FuzzFromSnapshot mutates a valid random tree's snapshot
// (fromSnapshotSeed): FromSnapshot must reject it with an error exactly
// when the former greedy-search check (validateBySearch) rejects it, or
// return a tree that passes Validate, answers DistanceID on every pair,
// and then rotates exactly like the pointer reference, with edge
// tracking on (rotateLikeReference).
func FuzzFromSnapshot(f *testing.F) {
	for _, in := range fromSnapshotSeeds {
		f.Add(in.nRaw, in.kRaw, in.seed, in.muts)
	}
	f.Fuzz(func(t *testing.T, nRaw, kRaw uint8, seed int64, muts []byte) {
		s := fromSnapshotSeed{nRaw, kRaw, seed, muts}.snapshot(t)
		if _, _, err := checksAgree(s); err != nil {
			t.Fatal(err)
		}
		back, err := FromSnapshot(s)
		if err != nil {
			return
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("FromSnapshot accepted a tree that fails Validate: %v", err)
		}
		for u := 1; u <= back.N(); u++ {
			for v := 1; v <= back.N(); v++ {
				d := back.DistanceID(u, v)
				if d < 0 || (d == 0) != (u == v) || d != back.DistanceID(v, u) {
					t.Fatalf("restored tree: DistanceID(%d,%d) = %d, DistanceID(%d,%d) = %d", u, v, d, v, u, back.DistanceID(v, u))
				}
			}
		}
		rotateLikeReference(t, back, seed, 6)
	})
}

// rotateLikeReference serves ops random requests on tr and on a pointer
// reference mirrored from it, and fails on the first rendering that
// differs or if tr no longer validates. Requests cycle through the k-ary
// SplayNet pattern with k-splay steps, the same with k-semi-splay steps,
// and one exported SplayStep or SemiSplay, whose tracked churn must match
// the parent arrays around it (trackedStep). The rebuilds derive each
// on-path node's slot from its id value, which Validate's interval check
// licenses; a tree FromSnapshot accepts must therefore rotate exactly as
// the reference does.
func rotateLikeReference(t *testing.T, tr *Tree, seed int64, ops int) {
	t.Helper()
	ref := newRefTree(tr)
	tr.SetTrackEdges(true)
	rng := rand.New(rand.NewSource(seed))
	for op := 0; op < ops; op++ {
		u, v := 1+rng.Intn(tr.N()), 1+rng.Intn(tr.N())
		if u == v {
			continue
		}
		a, b := tr.NodeByID(u), tr.NodeByID(v)
		_, w := tr.DistanceLCA(a, b)
		ra, rb, rw := ref.byID[u], ref.byID[v], ref.byID[w.ID()]
		switch op % 3 {
		case 0:
			tr.SplayUntilParent(a, w.Parent())
			ref.splayUntilParent(ra, parentRef(rw))
			tr.SplayUntilParent(b, a)
			ref.splayUntilParent(rb, ra)
		case 1:
			tr.SemiSplayUntilParent(a, w.Parent())
			ref.semiSplayUntilParent(ra, parentRef(rw))
			tr.SemiSplayUntilParent(b, a)
			ref.semiSplayUntilParent(rb, ra)
		case 2:
			switch {
			case ra.parent == nil:
			case ra.parent.parent == nil:
				if err := trackedStep(t, tr, tr.SemiSplay, a); err != nil {
					t.Fatal(err)
				}
				ref.rebuild([]*refNode{ra.parent, ra})
			default:
				if err := trackedStep(t, tr, tr.SplayStep, a); err != nil {
					t.Fatal(err)
				}
				ref.rebuild([]*refNode{ra.parent.parent, ra.parent, ra})
			}
		}
		if got, want := tr.Render(), ref.render(); got != want {
			t.Fatalf("op %d (%d→%d): rotated tree diverges from the reference\narena:\n%s\nreference:\n%s", op, u, v, got, want)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("tree invalid after rotating: %v", err)
	}
}
