package skipgraph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestRouteAllPairs(t *testing.T) {
	g := NewRandom(48, 9)
	nodes := g.Nodes()
	var buf []*Node
	for _, src := range nodes {
		for _, dst := range nodes {
			r, err := g.Route(src, dst)
			if err != nil {
				t.Fatalf("route %v→%v: %v", src.Key(), dst.Key(), err)
			}
			// RouteKeysInto walks the same path into the reused buffer.
			into, err := g.RouteKeysInto(buf, src.Key(), dst.Key())
			if err != nil || !slices.Equal(into.Path, r.Path) {
				t.Fatalf("route %v→%v into a buffer: %v, %v; want %v", src.Key(), dst.Key(), into.Path, err, r.Path)
			}
			buf = into.Path
			if r.Path[0] != src || r.Path[len(r.Path)-1] != dst {
				t.Fatalf("route %v→%v: path endpoints wrong", src.Key(), dst.Key())
			}
			// The path is monotone in key order (greedy routing never
			// overshoots).
			right := src.Key().Less(dst.Key())
			for i := 1; i < len(r.Path); i++ {
				prev, cur := r.Path[i-1].Key(), r.Path[i].Key()
				if right && !prev.Less(cur) {
					t.Fatalf("route %v→%v: not rightward at %v", src.Key(), dst.Key(), cur)
				}
				if !right && src != dst && !cur.Less(prev) {
					t.Fatalf("route %v→%v: not leftward at %v", src.Key(), dst.Key(), cur)
				}
			}
		}
	}
}

// TestRouteKeysIntoReusesBuffer: once the buffer has grown to the longest
// path, routing into it allocates nothing.
func TestRouteKeysIntoReusesBuffer(t *testing.T) {
	g := NewRandom(64, 3)
	nodes := g.Nodes()
	buf := make([]*Node, 0, len(nodes))
	src, dst := nodes[0].Key(), nodes[len(nodes)-1].Key()
	if allocs := testing.AllocsPerRun(20, func() {
		r, err := g.RouteKeysInto(buf, src, dst)
		if err != nil {
			t.Fatal(err)
		}
		buf = r.Path
	}); allocs != 0 {
		t.Errorf("a route into a grown buffer made %.1f allocations, want 0", allocs)
	}
}

func TestRouteSelf(t *testing.T) {
	g := NewRandom(4, 2)
	n := g.Nodes()[1]
	r, err := g.Route(n, n)
	if err != nil {
		t.Fatal(err)
	}
	if r.Distance() != 0 || r.Hops() != 0 {
		t.Fatalf("self route: distance %d, hops %d", r.Distance(), r.Hops())
	}
}

func TestRouteDistanceBound(t *testing.T) {
	// Routing in a skip graph of height H takes at most ~2H moves per
	// level in expectation; assert the loose structural bound that hops
	// never exceed n and rarely exceed 4·H for random graphs.
	for _, n := range []int{32, 128, 512} {
		g := NewRandom(n, int64(3*n))
		h := g.Height()
		rng := rand.New(rand.NewSource(int64(n)))
		exceeded := 0
		const trials = 300
		for i := 0; i < trials; i++ {
			a := rng.Intn(n)
			b := rng.Intn(n)
			r, err := g.RouteKeys(KeyOf(int64(a)), KeyOf(int64(b)))
			if err != nil {
				t.Fatal(err)
			}
			if r.Hops() > 4*h {
				exceeded++
			}
		}
		if exceeded > trials/10 {
			t.Errorf("n=%d: %d/%d routes exceeded 4·H hops", n, exceeded, trials)
		}
	}
}

func TestRouteErrors(t *testing.T) {
	g := NewRandom(4, 2)
	if _, err := g.RouteKeys(KeyOf(0), KeyOf(99)); err == nil {
		t.Error("routing to unknown key should fail")
	}
	if _, err := g.RouteKeys(KeyOf(99), KeyOf(0)); err == nil {
		t.Error("routing from unknown key should fail")
	}
	if _, err := g.Route(nil, g.Head()); err == nil {
		t.Error("nil source should fail")
	}
}

func TestDirectlyLinked(t *testing.T) {
	// Construct a graph where nodes 0 and 1 share a size-2 list at level 1.
	g := NewFromVectors([]VectorEntry{
		{Key: 0, ID: 0, Vector: "00"},
		{Key: 1, ID: 1, Vector: "01"},
		{Key: 2, ID: 2, Vector: "10"},
		{Key: 3, ID: 3, Vector: "11"},
	})
	a, b := g.ByKey(KeyOf(0)), g.ByKey(KeyOf(1))
	ok, lvl := g.DirectlyLinked(a, b)
	if !ok || lvl != 1 {
		t.Fatalf("DirectlyLinked(0,1) = (%v, %d), want (true, 1)", ok, lvl)
	}
	c := g.ByKey(KeyOf(2))
	if ok, _ := g.DirectlyLinked(a, c); ok {
		t.Fatal("nodes 0 and 2 reported directly linked")
	}
}

// TestRoutePropertyQuick: routing always succeeds and terminates at the
// destination for random graphs and random pairs.
func TestRoutePropertyQuick(t *testing.T) {
	f := func(seed int64, a, b uint8) bool {
		n := 40
		g := NewRandom(n, seed)
		src := int64(a) % int64(n)
		dst := int64(b) % int64(n)
		r, err := g.RouteKeys(KeyOf(src), KeyOf(dst))
		if err != nil {
			return false
		}
		return r.Path[len(r.Path)-1].Key() == KeyOf(dst)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBalanceViolationsDetection(t *testing.T) {
	// Vector assignment with a long same-bit run at level 0.
	entries := make([]VectorEntry, 8)
	for i := range entries {
		v := "0"
		if i >= 6 {
			v = "1"
		}
		entries[i] = VectorEntry{Key: int64(i), ID: int64(i), Vector: v}
	}
	g := NewFromVectors(entries)
	viol := g.BalanceViolations(4)
	if len(viol) == 0 {
		t.Fatal("expected a violation for a run of 6 zeros with a=4")
	}
	if viol[0].RunLen != 6 || viol[0].Level != 0 {
		t.Errorf("violation = %+v, want run 6 at level 0", viol[0])
	}
	if v := g.BalanceViolations(6); len(v) != 0 {
		t.Errorf("a=6 should tolerate a run of 6, got %v", v)
	}
}

// TestFigure1 reconstructs the paper's Fig 1: a skip graph with 6 nodes and
// 3 levels, where node M has membership vector "01" (0-sublist at level 1,
// 1-sublist at level 2) and the 10-subgraph contains G and W.
func TestFigure1(t *testing.T) {
	// Keys by alphabet position: A=1, G=7, J=10, M=13, R=18, W=23.
	g := NewFromVectors([]VectorEntry{
		{Key: 1, ID: 1, Vector: "00"},   // A
		{Key: 7, ID: 7, Vector: "10"},   // G
		{Key: 10, ID: 10, Vector: "00"}, // J
		{Key: 13, ID: 13, Vector: "01"}, // M
		{Key: 18, ID: 18, Vector: "11"}, // R
		{Key: 23, ID: 23, Vector: "10"}, // W
	})
	if err := g.Verify(); err != nil {
		t.Fatal(err)
	}
	m := g.ByKey(KeyOf(13))
	if got := m.MembershipVector(); got != "01" {
		t.Fatalf("m(M) = %q, want 01", got)
	}
	// Level 1: 0-sublist {A, J, M}, 1-sublist {G, R, W}.
	l1 := g.ListAt(m, 1)
	if len(l1) != 3 || l1[0].ID() != 1 || l1[1].ID() != 10 || l1[2].ID() != 13 {
		t.Fatalf("level-1 0-sublist = %v, want [A J M]", l1)
	}
	// The 10-subgraph (level-2 list with prefix "10") holds G and W.
	gNode := g.ByKey(KeyOf(7))
	l2 := g.ListAt(gNode, 2)
	if len(l2) != 2 || l2[0].ID() != 7 || l2[1].ID() != 23 {
		t.Fatalf("10-subgraph = %v, want [G W]", l2)
	}
	// Tree view renders three levels.
	out := g.TreeView().RenderLevels(nil, nil)
	want := "L0: 1 7 10 13 18 23\nL1: 1 10 13 | 7 18 23\nL2: 1 10 | 13 | 7 23 | 18\n"
	if out != want {
		t.Fatalf("tree view:\n%s\nwant:\n%s", out, want)
	}
}
