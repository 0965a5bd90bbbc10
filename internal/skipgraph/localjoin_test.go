package skipgraph

import (
	"math/rand"
	"testing"
)

// recomputeHeight recomputes the height from every node's links — the
// oracle for the height the graph maintains across mutations.
func recomputeHeight(g *Graph) int {
	h := 0
	for n := range g.All() {
		if l := n.MaxLinkedLevel(); l+1 > h && (n.Next(l) != nil || n.Prev(l) != nil) {
			h = l + 1
		}
	}
	return h
}

// TestLocalJoinFuzz drives a long random Insert/Remove sequence and checks
// the full structural invariant set after every operation: the local join
// must leave exactly the same class of graphs the global relink did —
// Verify-clean, with every real node's vector distinct from its direct
// neighbours' — without ever relinking the whole graph.
func TestLocalJoinFuzz(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		rng := rand.New(rand.NewSource(seed))
		g := NewRandom(8, seed)
		br := RandomBrancher(seed + 100)
		live := []int64{0, 1, 2, 3, 4, 5, 6, 7}
		next := int64(8)
		for op := 0; op < 400; op++ {
			if rng.Intn(2) == 0 || len(live) <= 2 {
				g.Insert(KeyOf(next), next, br)
				live = append(live, next)
				next++
			} else {
				i := rng.Intn(len(live))
				if g.Remove(KeyOf(live[i])) == nil {
					t.Fatalf("seed %d op %d: Remove(%d) returned nil", seed, op, live[i])
				}
				live = append(live[:i], live[i+1:]...)
			}
			if err := g.Verify(); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
			if g.N() != len(live) {
				t.Fatalf("seed %d op %d: N = %d, want %d", seed, op, g.N(), len(live))
			}
			for n := range g.All() {
				top := n.BitsLen()
				for _, nb := range []*Node{n.Prev(top), n.Next(top)} {
					if nb != nil && !nb.IsDummy() {
						t.Fatalf("seed %d op %d: nodes %d and %d adjacent at %d's top level %d",
							seed, op, n.ID(), nb.ID(), n.ID(), top)
					}
				}
			}
			if got, want := g.Height(), recomputeHeight(g); got != want {
				t.Fatalf("seed %d op %d: maintained height %d, recomputed %d", seed, op, got, want)
			}
		}
	}
}

// TestInsertTrackedEffect checks the join's dirty-set contract: the effect
// covers every level the new node occupies, anchors only live nodes, and
// extended peers really did grow their vectors.
func TestInsertTrackedEffect(t *testing.T) {
	g := NewRandom(32, 3)
	br := RandomBrancher(17)
	before := make(map[*Node]int)
	for n := range g.All() {
		before[n] = n.BitsLen()
	}
	n, eff := g.InsertTracked(KeyOf(100), 100, br)
	if err := g.Verify(); err != nil {
		t.Fatal(err)
	}
	covered := make(map[int]bool)
	for _, ref := range eff.Touched {
		if ref.Node == nil || g.ByKey(ref.Node.Key()) != ref.Node {
			t.Fatalf("touched ref anchors a dead node: %+v", ref)
		}
		if ref.Node == n {
			covered[int(ref.Level)] = true
		}
	}
	for l := 0; l <= n.MaxLinkedLevel(); l++ {
		if !covered[l] {
			t.Errorf("no touched ref for the new node at level %d", l)
		}
	}
	for _, x := range eff.Extended {
		if x.BitsLen() <= before[x] {
			t.Errorf("peer %d reported extended but vector stayed at %d bits", x.ID(), x.BitsLen())
		}
	}
	if eff.Work < n.MaxLinkedLevel() {
		t.Errorf("work %d below the node's own %d splice levels", eff.Work, n.MaxLinkedLevel())
	}
}

// TestRemoveTrackedRefs checks the leave's dirty-set contract: one ref per
// occupied level, each anchored at a node that survives the removal.
func TestRemoveTrackedRefs(t *testing.T) {
	g := NewRandom(32, 9)
	victim := g.ByKey(KeyOf(13))
	levels := victim.MaxLinkedLevel()
	removed, refs := g.RemoveTracked(KeyOf(13))
	if removed != victim {
		t.Fatalf("RemoveTracked returned %v", removed)
	}
	if err := g.Verify(); err != nil {
		t.Fatal(err)
	}
	if len(refs) != levels+1 {
		t.Fatalf("%d refs for %d occupied levels", len(refs), levels+1)
	}
	seen := make(map[int]bool)
	for _, ref := range refs {
		if g.ByKey(ref.Node.Key()) != ref.Node {
			t.Fatalf("ref at level %d anchors a dead node", ref.Level)
		}
		seen[int(ref.Level)] = true
	}
	for l := 0; l <= levels; l++ {
		if !seen[l] {
			t.Errorf("no ref for level %d", l)
		}
	}
}

// TestHeightInvalidation exercises every mutator the centralized dirty()
// helper guards: Insert, Remove, SpliceIn, and Relink must each leave the
// cached height equal to a from-scratch recomputation.
func TestHeightInvalidation(t *testing.T) {
	g := NewRandom(16, 11)
	br := RandomBrancher(23)
	check := func(step string) {
		t.Helper()
		got := g.Height() // reads (and caches) via the dirty flag
		if want := recomputeHeight(g); got != want {
			t.Fatalf("%s: maintained height %d, recomputed %d", step, got, want)
		}
	}
	check("initial")
	g.Insert(KeyOf(100), 100, br)
	check("after Insert")
	g.Remove(KeyOf(100))
	check("after Remove")
	n5 := g.ByKey(KeyOf(5))
	dm := NewDummy(Key{Primary: 5, Minor: 1}, 1000)
	dm.SetBit(1, n5.Bit(1))
	g.SpliceIn(dm)
	check("after SpliceIn")
	g.Remove(dm.Key())
	check("after dummy Remove")
	g.Relink(g.Nodes(), 0, br)
	check("after Relink")
	// An interleaved sequence, reading Height between every mutation so a
	// stale cache cannot hide behind a later invalidation.
	for i := int64(0); i < 20; i++ {
		g.Insert(KeyOf(200+i), 200+i, br)
		check("sequence insert")
		if i%3 == 0 {
			g.Remove(KeyOf(200 + i))
			check("sequence remove")
		}
	}
}

// TestBalanceViolationsInWindow checks the scoped scan against the global
// one: seeding the dirty set with a windowed ref for every node of every
// level must surface every violation the whole-graph walk finds.
func TestBalanceViolationsInWindow(t *testing.T) {
	// NewRandom's independent vectors carry no balance guarantee, so
	// violations exist with high probability at this size.
	g := NewRandom(256, 2)
	const a = 2
	global := g.BalanceViolations(a)
	if len(global) == 0 {
		t.Skip("seed produced a balanced graph; pick another seed")
	}
	key := func(v BalanceViolation) [4]int64 {
		return [4]int64{int64(v.Level), v.Start.key.Primary, int64(v.Start.key.Minor), int64(v.Bit)}
	}
	want := make(map[[4]int64]bool, len(global))
	for _, v := range global {
		want[key(v)] = true
	}
	var refs []ListRef
	for n := range g.All() {
		for l := 0; l <= n.MaxLinkedLevel(); l++ {
			refs = append(refs, ListRef{Node: n, Level: int32(l)})
		}
	}
	scoped, scanned := g.AppendBalanceViolationsIn(nil, a, refs)
	if scanned == 0 {
		t.Fatal("scoped scan reported zero work")
	}
	got := make(map[[4]int64]bool, len(scoped))
	for _, v := range scoped {
		got[key(v)] = true
	}
	for k := range want {
		if !got[k] {
			t.Errorf("global violation %v missed by the scoped scan", k)
		}
	}
	for k := range got {
		if !want[k] {
			t.Errorf("scoped scan invented violation %v", k)
		}
	}
}
