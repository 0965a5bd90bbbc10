package skipgraph

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// This file holds the position-scan splice the graph used before spliceIn
// learned to walk links, kept as the reference: it finds n's place by
// walking the base list from the head, and each level's neighbours by
// scanning the base list outward from there for the nearest member sharing
// n's level-bit prefix — O(n·H), independent of any link above level 0 — so
// it is right even where the link-walking splice, or its search for the
// place, could be fooled by a stale list. The property tests below drive both on twin graphs — node by node
// and, for the adjuster's batch entry points, batch against one-by-one —
// and demand identical links at every level.

// samePrefix reports whether a and b share membership bits 1..level.
func samePrefix(a, b *Node, level int) bool {
	for i := 1; i <= level; i++ {
		if !a.HasBit(i) || !b.HasBit(i) || a.bits[i] != b.bits[i] {
			return false
		}
	}
	return true
}

// spliceInByPosition is the reference splice.
func (g *Graph) spliceInByPosition(n *Node) {
	if g.ByKey(n.key) != nil {
		panic(fmt.Sprintf("skipgraph: duplicate key %v", n.key))
	}
	var before, after *Node // n's neighbours in the base list
	for after = g.head; after != nil && after.key.Less(n.key); after = after.Next(0) {
		before = after
	}
	if before == nil {
		g.head = n
	}
	g.adopt(n)
	for level := 0; level <= n.BitsLen(); level++ {
		left, right := before, after
		for left != nil && !samePrefix(left, n, level) {
			left = left.Prev(0)
		}
		for right != nil && !samePrefix(right, n, level) {
			right = right.Next(0)
		}
		g.linkBetween(n, level, left, right)
		if left == nil && right == nil && level > 0 {
			break // singleton from here up
		}
	}
}

// twinGraphs builds two identical random graphs seasoned with what the
// adjuster's splices meet in the field: dummies whose vectors stop short,
// crashed nodes, and singleton tops.
func twinGraphs(t *testing.T, n int, seed int64) (ref, got *Graph) {
	t.Helper()
	build := func() *Graph {
		g := NewRandom(n, seed)
		rng := rand.New(rand.NewSource(seed + 1))
		for i := 0; i < n/4; i++ {
			left := g.Nodes()[rng.Intn(g.N())]
			key := Key{Primary: left.key.Primary, Minor: left.key.Minor + 1 + int32(rng.Intn(1000))}
			if g.ByKey(key) != nil || (left.Next(0) != nil && !key.Less(left.Next(0).key)) {
				continue
			}
			dm := NewDummy(key, int64(10_000+i))
			for l := 1; l <= rng.Intn(left.BitsLen()+1); l++ {
				dm.SetBit(l, left.Bit(l))
			}
			g.spliceInByPosition(dm)
		}
		for i := 0; i < n/8; i++ {
			g.Crash(KeyOf(int64(rng.Intn(n))))
		}
		if err := g.Verify(); err != nil {
			t.Fatalf("seasoned graph invalid: %v", err)
		}
		return g
	}
	return build(), build()
}

// requireTwins asserts that two graphs over the same key set have identical
// links at every level.
func requireTwins(t *testing.T, step string, ref, got *Graph) {
	t.Helper()
	refNodes, gotNodes := ref.Nodes(), got.Nodes()
	if len(refNodes) != len(gotNodes) || got.N() != len(gotNodes) {
		t.Fatalf("%s: %d nodes (N() = %d), reference has %d", step, len(gotNodes), got.N(), len(refNodes))
	}
	keyOf := func(x *Node) Key {
		if x == nil {
			return Key{Primary: -1}
		}
		return x.key
	}
	for i, r := range refNodes {
		g := gotNodes[i]
		if r.key != g.key {
			t.Fatalf("%s: node order differs at %d: %v vs %v", step, i, g.key, r.key)
		}
		if r.MaxLinkedLevel() != g.MaxLinkedLevel() {
			t.Fatalf("%s: node %v top linked level %d, reference %d", step, g.key, g.MaxLinkedLevel(), r.MaxLinkedLevel())
		}
		for l := 0; l <= r.MaxLinkedLevel(); l++ {
			if keyOf(r.Prev(l)) != keyOf(g.Prev(l)) || keyOf(r.Next(l)) != keyOf(g.Next(l)) {
				t.Fatalf("%s: node %v level %d links (%v, %v), reference (%v, %v)", step, g.key, l,
					keyOf(g.Prev(l)), keyOf(g.Next(l)), keyOf(r.Prev(l)), keyOf(r.Next(l)))
			}
		}
	}
}

// randomDummy draws a detached dummy for g: a free key right of a random
// node, that node's prefix up to a random depth, and optionally one more
// bit of its own (a chain breaker's sibling bit).
func randomDummy(g *Graph, rng *rand.Rand, id int64) (key Key, bits []byte, ok bool) {
	left := g.Nodes()[rng.Intn(g.N())]
	key = Key{Primary: left.key.Primary, Minor: left.key.Minor + 1 + int32(rng.Intn(1000))}
	if g.ByKey(key) != nil || (left.Next(0) != nil && !key.Less(left.Next(0).key)) {
		return key, nil, false
	}
	depth := rng.Intn(left.BitsLen() + 1)
	for l := 1; l <= depth; l++ {
		bits = append(bits, left.Bit(l))
	}
	if rng.Intn(2) == 0 {
		bits = append(bits, byte(rng.Intn(2)))
	}
	return key, bits, true
}

func dummyWith(key Key, id int64, bits []byte) *Node {
	dm := NewDummy(key, id)
	for i, b := range bits {
		dm.SetBit(i+1, b)
	}
	return dm
}

// TestSpliceInMatchesPositionScan: on a valid graph the link-walking splice
// and the position-scan reference produce the same links, splice after
// splice.
func TestSpliceInMatchesPositionScan(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		ref, got := twinGraphs(t, 96, seed)
		rng := rand.New(rand.NewSource(seed + 100))
		for i := 0; i < 80; i++ {
			key, bits, ok := randomDummy(ref, rng, int64(20_000+i))
			if !ok {
				continue
			}
			ref.spliceInByPosition(dummyWith(key, int64(20_000+i), bits))
			got.SpliceIn(dummyWith(key, int64(20_000+i), bits))
			requireTwins(t, fmt.Sprintf("seed %d splice %d (%v %v)", seed, i, key, bits), ref, got)
			if i%9 == 0 {
				// Splice-outs between splices: the walk must cope with the
				// lists they leave behind, singleton tops included.
				victim := ref.Nodes()[rng.Intn(ref.N())].key
				ref.Remove(victim)
				got.Remove(victim)
				requireTwins(t, fmt.Sprintf("seed %d remove %v", seed, victim), ref, got)
			}
		}
		if err := got.Verify(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestSpliceInBelowThenRelink is the mid-transformation case: the members
// of one level-α list have had their vectors above α reassigned, so every
// link from α up is stale when the fresh dummies arrive. The reference
// splices them one by one, in creation order, at every level by position
// and relinks; the adjuster's path hands the whole batch, key-sorted, to
// SpliceInBelowAll — links below α only — and
// lets the same Relink do the rest. Links must agree once the Relink has
// run.
func TestSpliceInBelowThenRelink(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		ref, got := twinGraphs(t, 96, seed)
		rng := rand.New(rand.NewSource(seed + 200))
		for round := 0; round < 6; round++ {
			anchor := ref.Nodes()[rng.Intn(ref.N())]
			alpha := rng.Intn(anchor.BitsLen() + 1)
			members := listAt(anchor, alpha)
			// One decision list drives both graphs: the reassigned vectors,
			// then the dummies, keyed between members and carrying a
			// member's new prefix — up to three behind one member, so
			// newcomers meet newcomers at every level.
			newBits := make(map[Key][]byte)
			for _, m := range members {
				if m.dummy {
					continue
				}
				depth := 1 + rng.Intn(6)
				for l := 0; l < depth; l++ {
					newBits[m.key] = append(newBits[m.key], byte(rng.Intn(2)))
				}
			}
			type fresh struct {
				key  Key
				bits []byte
			}
			var dummies []fresh
			for _, m := range members {
				if m.dummy || rng.Intn(3) != 0 {
					continue
				}
				for k := 0; k <= rng.Intn(3); k++ {
					key := Key{Primary: m.key.Primary, Minor: 500_000 + int32(10*round+k)}
					if nx := m.Next(0); nx != nil && !key.Less(nx.key) {
						continue
					}
					var bits []byte
					for l := 1; l <= alpha; l++ {
						bits = append(bits, m.Bit(l))
					}
					nb := newBits[m.key]
					bits = append(bits, nb[:1+rng.Intn(len(nb))]...)
					bits[len(bits)-1] ^= 1 // the sibling side, like a chain breaker
					dummies = append(dummies, fresh{key, bits})
				}
			}
			rng.Shuffle(len(dummies), func(i, j int) { dummies[i], dummies[j] = dummies[j], dummies[i] })
			apply := func(g *Graph, install func(*Graph, []*Node)) {
				list := listAt(g.ByKey(anchor.key), alpha)
				for _, m := range list {
					if nb, ok := newBits[m.key]; ok {
						m.TruncateBits(alpha)
						for i, b := range nb {
							m.SetBit(alpha+1+i, b)
						}
					}
				}
				batch := make([]*Node, len(dummies))
				for i, f := range dummies {
					batch[i] = dummyWith(f.key, int64(30_000+100*round+i), f.bits)
				}
				install(g, batch)
				list = append(list, batch...)
				sort.Slice(list, func(i, j int) bool { return list[i].key.Less(list[j].key) })
				g.Relink(list, alpha, nil)
			}
			apply(ref, func(g *Graph, batch []*Node) {
				for _, dm := range batch {
					g.spliceInByPosition(dm)
				}
			})
			apply(got, func(g *Graph, batch []*Node) {
				sorted := append([]*Node(nil), batch...)
				sort.Slice(sorted, func(i, j int) bool { return sorted[i].key.Less(sorted[j].key) })
				g.SpliceInBelowAll(sorted, alpha)
			})
			requireTwins(t, fmt.Sprintf("seed %d round %d alpha %d", seed, round, alpha), ref, got)
		}
		if err := got.Verify(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestRemoveAllMatchesRemove: a transformation's doomed dummies leave in
// one RemoveAll. The reference removes them one by one, recording each
// one's ex-list refs just before it goes. Links and the dirty set — anchors
// and levels, in order, below the level the caller rebuilds from (α on even
// rounds, no bound on odd ones) — must agree.
func TestRemoveAllMatchesRemove(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		ref, got := twinGraphs(t, 96, seed)
		rng := rand.New(rand.NewSource(seed + 300))
		for round := 0; round < 6; round++ {
			anchor := ref.Nodes()[rng.Intn(ref.N())]
			alpha := rng.Intn(anchor.BitsLen() + 1)
			// The doomed: every dummy of one level-α list plus a few of its
			// other members, so neighbours leave together at every level.
			var doomed []Key
			for _, m := range listAt(anchor, alpha) {
				if m.dummy || rng.Intn(4) == 0 {
					doomed = append(doomed, m.key)
				}
			}
			below := alpha
			if round%2 == 1 {
				below = math.MaxInt32
			}
			var refRefs []ListRef
			for _, k := range doomed {
				for _, r := range AppendExListRefs(nil, ref.ByKey(k)) {
					if int(r.Level) < below {
						refRefs = append(refRefs, r)
					}
				}
				ref.Remove(k)
			}
			batch := make([]*Node, len(doomed))
			for i, k := range doomed {
				batch[i] = got.ByKey(k)
			}
			gotRefs := got.RemoveAll(batch, below, nil)
			step := fmt.Sprintf("seed %d round %d alpha %d (%d doomed)", seed, round, alpha, len(doomed))
			requireTwins(t, step, ref, got)
			if len(gotRefs) != len(refRefs) {
				t.Fatalf("%s: %d refs, reference %d", step, len(gotRefs), len(refRefs))
			}
			for i, r := range refRefs {
				if g := gotRefs[i]; g.Node.key != r.Node.key || g.Level != r.Level || g.Whole != r.Whole {
					t.Fatalf("%s: ref %d = (%v, %d), reference (%v, %d)", step, i, g.Node.key, g.Level, r.Node.key, r.Level)
				}
			}
			for _, n := range batch {
				if got.Contains(n) || got.ByKey(n.key) != nil {
					t.Fatalf("%s: %v still in the graph", step, n.key)
				}
			}
		}
		if err := got.Verify(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
