package skipgraph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewRandomVerify(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 16, 33, 100, 257} {
		g := NewRandom(n, int64(n))
		if g.N() != n {
			t.Fatalf("n=%d: N() = %d", n, g.N())
		}
		if err := g.Verify(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestHeightLogarithmic(t *testing.T) {
	// Random membership vectors give height O(log n) w.h.p.; allow a
	// generous 4x factor.
	for _, n := range []int{16, 64, 256, 1024} {
		g := NewRandom(n, 7)
		h := g.Height()
		logN := 0
		for v := 1; v < n; v <<= 1 {
			logN++
		}
		if h > 4*logN {
			t.Errorf("n=%d: height %d > 4·log n = %d", n, h, 4*logN)
		}
		if h < logN {
			t.Errorf("n=%d: height %d < log n = %d (cannot distinguish %d nodes)", n, h, logN, n)
		}
	}
}

func TestSingleNodeGraph(t *testing.T) {
	g := NewRandom(1, 1)
	if h := g.Height(); h != 0 {
		t.Errorf("single node height = %d, want 0", h)
	}
	n := g.Head()
	if n.Next(0) != nil || n.Prev(0) != nil {
		t.Errorf("single node has level-0 neighbours")
	}
}

func TestListAtLevels(t *testing.T) {
	g := NewRandom(32, 3)
	for _, n := range g.Nodes() {
		base := g.ListAt(n, 0)
		if len(base) != 32 {
			t.Fatalf("base list has %d nodes", len(base))
		}
		for lvl := 1; lvl <= n.MaxLinkedLevel(); lvl++ {
			list := g.ListAt(n, lvl)
			for _, m := range list {
				if !samePrefix(n, m, lvl) {
					t.Fatalf("level-%d list of %v contains %v with different prefix", lvl, n, m)
				}
			}
			// Lists shrink (weakly) going up.
			upper := g.ListAt(n, lvl)
			lower := g.ListAt(n, lvl-1)
			if len(upper) > len(lower) {
				t.Fatalf("level %d list larger than level %d", lvl, lvl-1)
			}
		}
	}
}

func TestSingletonLevel(t *testing.T) {
	g := NewRandom(64, 11)
	for _, n := range g.Nodes() {
		s := g.SingletonLevel(n)
		if got := len(g.ListAt(n, s)); got != 1 {
			t.Fatalf("node %v: list at singleton level %d has %d members", n, s, got)
		}
		if s > 0 {
			if got := len(g.ListAt(n, s-1)); got < 2 {
				t.Fatalf("node %v: list below singleton level has %d members", n, got)
			}
		}
	}
}

func TestInsertRemove(t *testing.T) {
	g := NewRandom(8, 5)
	br := RandomBrancher(99)
	// Insert keys in the middle and at the ends.
	for _, k := range []int64{100, 101, 50} {
		g.Insert(KeyOf(k), k, br)
		if err := g.Verify(); err != nil {
			t.Fatalf("after insert %d: %v", k, err)
		}
	}
	if g.N() != 11 {
		t.Fatalf("N = %d, want 11", g.N())
	}
	r, err := g.RouteKeys(KeyOf(0), KeyOf(101))
	if err != nil {
		t.Fatalf("route to inserted node: %v", err)
	}
	if r.Path[len(r.Path)-1].Key() != KeyOf(101) {
		t.Fatalf("route ended at %v", r.Path[len(r.Path)-1])
	}
	for _, k := range []int64{100, 50, 0} {
		if n := g.Remove(KeyOf(k)); n == nil {
			t.Fatalf("Remove(%d) returned nil", k)
		}
		if err := g.Verify(); err != nil {
			t.Fatalf("after remove %d: %v", k, err)
		}
	}
	if g.Remove(KeyOf(12345)) != nil {
		t.Fatal("Remove of absent key returned a node")
	}
	if g.N() != 8 {
		t.Fatalf("N = %d, want 8", g.N())
	}
}

func TestSpliceInDummy(t *testing.T) {
	g := NewRandom(16, 21)
	// Dummy between keys 3 and 4 sharing node 3's first bit.
	n3 := g.ByKey(KeyOf(3))
	dm := NewDummy(Key{Primary: 3, Minor: 1}, 1000)
	dm.SetBit(1, n3.Bit(1))
	g.SpliceIn(dm)
	if err := g.Verify(); err != nil {
		t.Fatalf("after SpliceIn: %v", err)
	}
	if g.N() != 17 {
		t.Fatalf("N = %d, want 17", g.N())
	}
	// The dummy is routable through.
	if _, err := g.RouteKeys(KeyOf(0), KeyOf(15)); err != nil {
		t.Fatalf("routing across dummy: %v", err)
	}
	g.Remove(dm.Key())
	if err := g.Verify(); err != nil {
		t.Fatalf("after removing dummy: %v", err)
	}
}

// TestRespreadDummies packs dummies onto adjacent minors under one primary
// — where bisection leaves them — and checks that a respread moves keys and
// nothing else: same node order, same Prev/Next at every level, the key index
// following, and afterwards a free key in every gap.
func TestRespreadDummies(t *testing.T) {
	g := NewRandom(16, 21)
	n3 := g.ByKey(KeyOf(3))
	var dummies []*Node
	for _, minor := range []int32{1, 2, 3, 4, 8, 1 << 29} {
		dm := NewDummy(Key{Primary: 3, Minor: minor}, int64(1000+len(dummies)))
		dm.SetBit(1, n3.Bit(1))
		dm.SetBit(2, byte(len(dummies)%2))
		g.SpliceIn(dm)
		dummies = append(dummies, dm)
	}
	// A dummy under another primary must stay where it is.
	other := NewDummy(Key{Primary: 4, Minor: 1}, 2000)
	g.SpliceIn(other)

	type links struct{ prev, next *Node }
	order := g.Nodes()
	before := make(map[*Node][]links)
	for _, n := range order {
		for l := 0; l <= n.MaxLinkedLevel(); l++ {
			before[n] = append(before[n], links{n.Prev(l), n.Next(l)})
		}
	}

	// From a dummy in the middle, from the last one and from the real node:
	// the same set every time.
	for _, at := range []*Node{dummies[2], dummies[5], n3} {
		if got := g.RespreadDummies(at); got != len(dummies) {
			t.Fatalf("respread from %v relabelled %d dummies, want %d", at, got, len(dummies))
		}
		if err := g.Verify(); err != nil {
			t.Fatalf("after respread from %v: %v", at, err)
		}
		for i, n := range g.Nodes() {
			if n != order[i] {
				t.Fatalf("node order moved at %d: %v, want %v", i, n, order[i])
			}
			if g.ByKey(n.Key()) != n {
				t.Fatalf("ByKey(%v) does not find the node keyed so", n.Key())
			}
			for l, want := range before[n] {
				if n.Prev(l) != want.prev || n.Next(l) != want.next {
					t.Fatalf("%v level %d: links moved", n, l)
				}
			}
		}
		if other.Key() != (Key{Primary: 4, Minor: 1}) || n3.Key() != KeyOf(3) {
			t.Fatalf("respread reached outside the primary's dummies: %v, %v", other.Key(), n3.Key())
		}
		for _, dm := range dummies {
			if left := dm.Prev(0); dm.Key().Minor-left.Key().Minor < 2 {
				t.Fatalf("no free key between %v and %v", left.Key(), dm.Key())
			}
		}
		if last := dummies[len(dummies)-1]; last.Key().Minor > MinorSpace-2 {
			t.Fatalf("no free key after %v", last.Key())
		}
	}
	for _, minor := range []int32{1, 2, 3, 4, 8} {
		if n := g.ByKey(Key{Primary: 3, Minor: minor}); n != nil {
			t.Fatalf("old key 3+%d still indexed: %v", minor, n)
		}
	}
	if g.RespreadDummies(g.ByKey(KeyOf(9))) != 0 {
		t.Fatal("a primary without dummies has nothing to relabel")
	}
}

func TestCommonPrefixLen(t *testing.T) {
	entries := []VectorEntry{
		{Key: 1, ID: 1, Vector: "000"},
		{Key: 2, ID: 2, Vector: "001"},
		{Key: 3, ID: 3, Vector: "01"},
		{Key: 4, ID: 4, Vector: "1"},
	}
	g := NewFromVectors(entries)
	tests := []struct {
		a, b int64
		want int
	}{
		{1, 2, 2}, {1, 3, 1}, {1, 4, 0}, {3, 4, 0}, {2, 3, 1},
	}
	for _, tc := range tests {
		got := CommonPrefixLen(g.ByKey(KeyOf(tc.a)), g.ByKey(KeyOf(tc.b)))
		if got != tc.want {
			t.Errorf("CommonPrefixLen(%d, %d) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestKeyOrdering(t *testing.T) {
	ks := []Key{
		{Primary: 1, Minor: 0},
		{Primary: 1, Minor: 1},
		{Primary: 1, Minor: 2},
		{Primary: 2, Minor: 0},
	}
	for i := 0; i+1 < len(ks); i++ {
		if !ks[i].Less(ks[i+1]) {
			t.Errorf("%v should be < %v", ks[i], ks[i+1])
		}
		if ks[i+1].Less(ks[i]) {
			t.Errorf("%v should not be < %v", ks[i+1], ks[i])
		}
		if ks[i].Compare(ks[i+1]) != -1 || ks[i+1].Compare(ks[i]) != 1 {
			t.Errorf("Compare inconsistent for %v, %v", ks[i], ks[i+1])
		}
	}
	if KeyOf(5).Compare(KeyOf(5)) != 0 {
		t.Error("equal keys should compare 0")
	}
	if got := (Key{Primary: 3, Minor: 2}).String(); got != "3+2" {
		t.Errorf("dummy key renders %q", got)
	}
}

// TestVerifyPropertyQuick builds random graphs from random seeds and
// verifies all structural invariants hold (property-based).
func TestVerifyPropertyQuick(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz%200) + 2
		g := NewRandom(n, seed)
		return g.Verify() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestMembershipVectorRoundTrip checks SetBit/Bit/MembershipVector and
// truncation behaviour.
func TestMembershipVectorRoundTrip(t *testing.T) {
	n := NewNode(KeyOf(1), 1)
	bits := []byte{0, 1, 1, 0}
	for i, b := range bits {
		n.SetBit(i+1, b)
	}
	if got := n.MembershipVector(); got != "0110" {
		t.Fatalf("vector = %q", got)
	}
	if n.BitsLen() != 4 {
		t.Fatalf("BitsLen = %d", n.BitsLen())
	}
	n.TruncateBits(2)
	if got := n.MembershipVector(); got != "01" {
		t.Fatalf("after truncate: %q", got)
	}
	if n.HasBit(3) {
		t.Fatal("bit 3 survived truncation")
	}
	n.SetBit(3, 1) // reassign contiguously
	if got := n.MembershipVector(); got != "011" {
		t.Fatalf("after reassign: %q", got)
	}
}

func TestSetBitPanics(t *testing.T) {
	n := NewNode(KeyOf(1), 1)
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"non-contiguous", func() { n.SetBit(3, 0) }},
		{"bad value", func() { n.SetBit(1, 2) }},
		{"level zero", func() { n.SetBit(0, 0) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			tc.f()
		}()
	}
}

func TestRelinkSubsetAfterVectorChange(t *testing.T) {
	// Reassign the vectors of one level-1 sublist and relink only that
	// subset; the rest of the graph must stay intact.
	g := NewRandom(40, 17)
	n0 := g.Nodes()[0]
	sub := g.ListAt(n0, 1)
	if len(sub) < 4 {
		t.Skip("sublist too small for this seed")
	}
	for _, m := range sub {
		m.TruncateBits(1)
	}
	rng := rand.New(rand.NewSource(5))
	g.Relink(sub, 1, func(*Node, int) byte { return byte(rng.Intn(2)) })
	if err := g.Verify(); err != nil {
		t.Fatalf("after subset relink: %v", err)
	}
}
