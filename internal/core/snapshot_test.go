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

// FuzzFromSnapshot mutates a valid random tree's snapshot: FromSnapshot
// must reject it with an error, or return a tree that passes Validate and
// answers DistanceID on every pair. Each five bytes of muts are one
// mutation: a target (parent link, span entry, root, arity or node
// count), a 16-bit index and a signed 16-bit value.
func FuzzFromSnapshot(f *testing.F) {
	f.Add(uint8(20), uint8(3), int64(1), []byte{})
	f.Add(uint8(20), uint8(3), int64(1), []byte{0, 5, 0, 0, 0})       // node 5 loses its parent
	f.Add(uint8(33), uint8(2), int64(2), []byte{1, 7, 0, 200, 0})     // a span entry out of range
	f.Add(uint8(9), uint8(5), int64(3), []byte{2, 0, 0, 4, 0})        // another root
	f.Add(uint8(40), uint8(4), int64(4), []byte{1, 1, 0, 2, 0, 3, 0}) // a threshold moved, then a stray byte
	f.Fuzz(func(t *testing.T, nRaw, kRaw uint8, seed int64, muts []byte) {
		n, k := 1+int(nRaw)%64, 2+int(kRaw)%7
		tr, err := NewRandom(n, k, seed)
		if err != nil {
			t.Fatal(err)
		}
		s := tr.Snapshot()
		for ; len(muts) >= 5; muts = muts[5:] {
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
	})
}
