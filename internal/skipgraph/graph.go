package skipgraph

import (
	"fmt"
	"iter"
	"math/rand"
	"slices"
	"sort"
)

// Brancher chooses the membership bit for a node whose level-(i-1) list is
// splitting and whose bit for level i is not yet assigned. The static
// (non-adjusting) skip graph uses a random brancher; DSG assigns every bit
// explicitly and uses no brancher.
type Brancher func(n *Node, level int) byte

// RandomBrancher returns a Brancher drawing independent fair bits from seed.
func RandomBrancher(seed int64) Brancher {
	rng := rand.New(rand.NewSource(seed))
	return func(*Node, int) byte { return byte(rng.Intn(2)) }
}

// Graph is a skip graph: a base doubly linked list of nodes in key order,
// recursively split into per-level linked lists by membership-vector bits.
// The base list is the only node order there is: head is its first node,
// n counts its members, and a position in it is found by searching the
// lists above it (before), never by indexing.
type Graph struct {
	head  *Node
	n     int
	byKey map[Key]*Node
	// tops[l] counts the nodes whose highest linked level is l, kept with
	// its last entry non-zero, so the height is its length. Every link
	// change goes through setLink, unlink or Relink, which keep it.
	tops []int

	// Writer-owned scratch, reused across calls so the adjuster's steady
	// state allocates nothing here: the buffer Relink partitions in place
	// (plus the holding area for one partition's 1-side), the Whole refs a
	// scoped violation scan has visited, and the scoped scans' run table.
	// The buffers are cleared after use so they never keep a removed node
	// alive.
	relinkBuf, relinkTmp []*Node
	seenWide             []ListRef
	scan                 runTable
	// mark is the current visit stamp (see Node.mark); it only grows.
	mark uint64
}

// NewRandom builds a skip graph over n real nodes with keys and identifiers
// 0..n-1 and independently random membership vectors (the classic Aspnes-
// Shah construction, used as the static baseline topology).
func NewRandom(n int, seed int64) *Graph {
	if n < 1 {
		panic(fmt.Sprintf("skipgraph: need at least one node, got %d", n))
	}
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = NewNode(KeyOf(int64(i)), int64(i))
	}
	return NewFromNodes(nodes, RandomBrancher(seed))
}

// NewFromNodes builds a graph from pre-created nodes (sorted internally by
// key). Missing membership bits are drawn from brancher; if brancher is nil,
// every node must already carry enough bits to become singleton.
func NewFromNodes(nodes []*Node, brancher Brancher) *Graph {
	g, order := newOver(nodes)
	for i := 1; i < len(order); i++ {
		if !order[i-1].key.Less(order[i].key) {
			panic(fmt.Sprintf("skipgraph: duplicate key %v", order[i].key))
		}
	}
	g.relink(order, 0, brancher)
	g.recountTops()
	return g
}

// newOver adopts nodes into a new graph and returns them in key order, for
// the constructor to link; the first is the head.
func newOver(nodes []*Node) (*Graph, []*Node) {
	g := &Graph{byKey: make(map[Key]*Node, len(nodes))}
	order := append([]*Node(nil), nodes...)
	sort.Slice(order, func(i, j int) bool { return order[i].key.Less(order[j].key) })
	for _, n := range order {
		g.adopt(n)
	}
	if len(order) > 0 {
		g.head = order[0]
	}
	return g, order
}

// VectorEntry describes one node for NewFromVectors.
type VectorEntry struct {
	Key    int64
	ID     int64
	Vector string // membership bits, level 1 first, e.g. "01"
}

// NewFromVectors builds a graph with explicit membership vectors, used to
// reconstruct the paper's figures exactly. Vectors may be partial; lists
// that still hold ≥ 2 nodes after all bits are consumed stay unsplit, which
// matches the truncated figures (e.g. Fig 1 shows only 3 levels).
func NewFromVectors(entries []VectorEntry) *Graph {
	nodes := make([]*Node, len(entries))
	for i, e := range entries {
		n := NewNode(KeyOf(e.Key), e.ID)
		for j, c := range e.Vector {
			switch c {
			case '0':
				n.SetBit(j+1, 0)
			case '1':
				n.SetBit(j+1, 1)
			default:
				panic(fmt.Sprintf("skipgraph: bad vector %q", e.Vector))
			}
		}
		nodes[i] = n
	}
	g, order := newOver(nodes)
	g.relinkPartial(order, 0)
	g.recountTops()
	return g
}

// N returns the number of nodes, including dummies.
func (g *Graph) N() int { return g.n }

// RealN returns the number of non-dummy nodes.
func (g *Graph) RealN() int {
	c := 0
	for n := range g.All() {
		if !n.dummy {
			c++
		}
	}
	return c
}

// Nodes returns the nodes in key order, in a fresh slice.
func (g *Graph) Nodes() []*Node {
	nodes := make([]*Node, 0, g.n)
	for n := range g.All() {
		nodes = append(nodes, n)
	}
	return nodes
}

// All returns an in-order iterator over the nodes (dummies included): a
// walk of the base list. The graph must not be mutated while iterating;
// callers that mutate should collect into a slice first (or use Nodes).
func (g *Graph) All() iter.Seq[*Node] {
	return func(yield func(*Node) bool) {
		for n := g.head; n != nil; n = n.Next(0) {
			if !yield(n) {
				return
			}
		}
	}
}

// ByKey returns the node with the given key, or nil.
func (g *Graph) ByKey(k Key) *Node { return g.byKey[k] }

// Contains reports whether n is currently a node of this graph — false for
// a node that has been removed, even if its key has since been re-added.
func (g *Graph) Contains(n *Node) bool { return n.owner == g }

// adopt indexes and counts a node entering the graph.
func (g *Graph) adopt(n *Node) {
	g.byKey[n.key] = n
	g.n++
	n.owner = g
	n.mark = 0 // a stamp from another graph's history must never match ours
}

// Head returns the first node of the base list.
func (g *Graph) Head() *Node { return g.head }

// before returns the last node of the base list whose key orders before k,
// nil when there is none. The search enters at the real node of k's primary
// when the graph holds it — a dummy's position is at most that primary's
// other dummies away from it — and at the head otherwise.
func (g *Graph) before(k Key) *Node {
	from := g.byKey[Key{Primary: k.Primary}]
	if from == nil || !from.key.Less(k) {
		from = g.head
		if from == nil || !from.key.Less(k) {
			return nil
		}
	}
	// The standard search (Appendix B), stopping short of k: go right while
	// the next node still orders before k, else drop a level. Every list is
	// key-ordered whatever its members' vectors say, so the search holds in
	// the middle of a transformation too, when the bits above alpha have
	// been reassigned and the links not yet.
	for level := from.linkedTop(); level >= 0; level-- {
		for nx := from.next[level]; nx != nil && nx.key.Less(k); nx = from.next[level] {
			from = nx
		}
	}
	return from
}

// from returns the first node of the base list whose key is not before k,
// nil when there is none.
func (g *Graph) from(k Key) *Node {
	if n := g.byKey[k]; n != nil {
		return n
	}
	if p := g.before(k); p != nil {
		return p.Next(0)
	}
	return g.head
}

// setLink is Node.setLink for a node of the graph: it keeps the height
// histogram.
func (g *Graph) setLink(n *Node, level int, prev, next *Node) {
	old := n.linkedTop()
	n.setLink(level, prev, next)
	if level < old {
		return // the top link is untouched
	}
	if now := n.linkedTop(); now != old {
		g.addTop(old, -1)
		g.addTop(now, 1)
	}
}

// addTop records that the number of nodes whose highest linked level is top
// changed by delta; a node with no link at all (top -1) is not counted.
func (g *Graph) addTop(top, delta int) {
	if top < 0 {
		return
	}
	for len(g.tops) <= top {
		g.tops = append(g.tops, 0)
	}
	g.tops[top] += delta
	for len(g.tops) > 0 && g.tops[len(g.tops)-1] == 0 {
		g.tops = g.tops[:len(g.tops)-1]
	}
}

// recountTops rebuilds the height histogram from the nodes.
func (g *Graph) recountTops() {
	g.tops = g.tops[:0]
	for n := range g.All() {
		g.addTop(n.linkedTop(), 1)
	}
}

// Relink rebuilds all linked lists for the given key-ordered node subset
// from the given level upward, assigning missing membership bits via
// brancher (nil brancher panics on a missing bit). The subset must be the
// complete membership of one level-`level` list, so no link outside it
// changes; at level 0 that is every node, and the first becomes the head.
func (g *Graph) Relink(nodes []*Node, level int, brancher Brancher) {
	for _, n := range nodes {
		g.addTop(n.linkedTop(), -1)
	}
	g.relinkBuf = append(g.relinkBuf[:0], nodes...)
	g.relink(g.relinkBuf, level, brancher)
	clear(g.relinkBuf)
	for _, n := range nodes {
		g.addTop(n.linkedTop(), 1)
	}
	if level == 0 && len(nodes) > 0 {
		g.head = nodes[0]
	}
}

// relink links nodes as one level-`level` list and recurses into its two
// sublists, partitioning nodes in place (stable, so both sides stay in key
// order); nodes must be writable scratch.
func (g *Graph) relink(nodes []*Node, level int, brancher Brancher) {
	linkChain(nodes, level)
	if len(nodes) < 2 {
		if len(nodes) == 1 {
			nodes[0].clearLinksAbove(level)
		}
		return
	}
	zeros, ones := 0, g.relinkTmp[:0]
	for _, n := range nodes {
		if !n.HasBit(level + 1) {
			if n.dummy || brancher == nil {
				// A vector may legitimately end here: dummies never
				// participate in transformations (§IV-F), and a real node
				// stops splitting once every other member of its list is a
				// dummy. Such nodes stay singleton above this level.
				n.clearLinksAbove(level)
				continue
			}
			n.SetBit(level+1, brancher(n, level+1))
		}
		if n.Bit(level+1) == 0 {
			nodes[zeros] = n
			zeros++
		} else {
			ones = append(ones, n)
		}
	}
	end := zeros + copy(nodes[zeros:], ones)
	clear(ones)
	g.relinkTmp = ones[:0]
	g.relink(nodes[:zeros], level+1, brancher)
	g.relink(nodes[zeros:end], level+1, brancher)
}

// relinkPartial is like relink but stops splitting a list when any member
// lacks the next bit (used for truncated figure reconstructions).
func (g *Graph) relinkPartial(nodes []*Node, level int) {
	linkChain(nodes, level)
	if len(nodes) < 2 {
		if len(nodes) == 1 {
			nodes[0].clearLinksAbove(level)
		}
		return
	}
	zeros := make([]*Node, 0, len(nodes))
	ones := make([]*Node, 0, len(nodes))
	for _, n := range nodes {
		if !n.HasBit(level + 1) {
			for _, m := range nodes {
				m.clearLinksAbove(level)
			}
			return
		}
		if n.Bit(level+1) == 0 {
			zeros = append(zeros, n)
		} else {
			ones = append(ones, n)
		}
	}
	g.relinkPartial(zeros, level+1)
	g.relinkPartial(ones, level+1)
}

func linkChain(nodes []*Node, level int) {
	for i, n := range nodes {
		var p, nx *Node
		if i > 0 {
			p = nodes[i-1]
		}
		if i < len(nodes)-1 {
			nx = nodes[i+1]
		}
		n.setLink(level, p, nx)
	}
}

// Height returns the smallest L such that every node is singleton in its
// level-L list; lists exist at levels 0..L. A single-node graph has height 0.
func (g *Graph) Height() int { return len(g.tops) }

// SingletonLevel returns the lowest level at which n is alone in its list.
func (g *Graph) SingletonLevel(n *Node) int {
	return n.MaxLinkedLevel() + 1
}

// SpliceInBelowAll inserts a batch of detached nodes, given in key order,
// into the graph and into their lists at levels < level only. It is for a
// caller in the middle of rebuilding the level-`level` list the nodes belong
// to (a transformation, whose links from that level up are stale until it
// relinks them): the caller must follow up with a Relink of that list, the
// batch included, which links it from `level` upward — from the base list
// upward when level is 0, so the batch is then only adopted here.
//
// The links go in level by level, each level in key order: by the time a
// level is walked every newcomer is a full member of the level below, so
// spliceAtLevel's walk sees the final list. A newcomer may pick a
// not-yet-linked newcomer as its right neighbour; that one's own turn then
// completes the chain.
func (g *Graph) SpliceInBelowAll(nodes []*Node, level int) {
	for i, n := range nodes {
		if _, ok := g.byKey[n.key]; ok || (i > 0 && !nodes[i-1].key.Less(n.key)) {
			panic(fmt.Sprintf("skipgraph: duplicate or unordered key %v", n.key))
		}
		n.reserveLinks(n.BitsLen())
	}
	for _, n := range nodes {
		if level < 1 {
			g.adopt(n)
		} else {
			g.spliceIntoBase(n)
		}
	}
	for l := 1; l < level; l++ {
		for _, n := range nodes {
			if n.HasBit(l) {
				g.spliceAtLevel(n, l)
			}
		}
	}
}

// SpliceIn inserts a detached node into the base list and into the list its
// membership bits name at every level above. Each of those levels walks the
// list one level down to the nearest members sharing n's next bit (Aspnes &
// Shah's join, O(a) per level on an a-balanced graph), stopping once n is
// alone.
func (g *Graph) SpliceIn(n *Node) {
	if _, ok := g.byKey[n.key]; ok {
		panic(fmt.Sprintf("skipgraph: duplicate key %v", n.key))
	}
	n.reserveLinks(n.BitsLen())
	g.spliceIntoBase(n)
	for level := 1; level <= n.BitsLen(); level++ {
		g.spliceAtLevel(n, level)
		if n.Prev(level) == nil && n.Next(level) == nil {
			break // singleton from here up
		}
	}
}

// spliceIntoBase adopts a detached node and links it into the base list at
// its key's position.
func (g *Graph) spliceIntoBase(n *Node) {
	left, right := g.before(n.key), g.head
	if left != nil {
		right = left.Next(0)
	} else {
		g.head = n
	}
	g.adopt(n)
	g.linkBetween(n, 0, left, right)
}

// linkBetween links x into level m between left and right (either may be
// nil).
func (g *Graph) linkBetween(x *Node, m int, left, right *Node) {
	g.setLink(x, m, left, right)
	if left != nil {
		g.setLink(left, m, left.Prev(m), x)
	}
	if right != nil {
		g.setLink(right, m, x, right.Next(m))
	}
}

// unlink takes a node out of the graph: out of the key index and out of
// every list, the base list included.
func (g *Graph) unlink(n *Node) {
	if !g.Contains(n) {
		panic(fmt.Sprintf("skipgraph: node %v not in graph", n.key))
	}
	delete(g.byKey, n.key)
	g.n--
	n.owner = nil
	if g.head == n {
		g.head = n.Next(0)
	}
	top := n.linkedTop()
	g.addTop(top, -1)
	for level := 0; level <= top; level++ {
		left, right := n.Prev(level), n.Next(level)
		if left != nil {
			g.setLink(left, level, left.Prev(level), right)
		}
		if right != nil {
			g.setLink(right, level, left, right.Next(level))
		}
	}
	n.clearLinksAbove(-1)
}

// ListRef names a dirty region of one linked list: a live anchor node plus
// the list's level. Mutating operations report ListRefs for everything they
// touched so a-balance repair can stay local (§IV-F/§IV-G) instead of
// rescanning the whole graph. By default the dirty region is the *window*
// around the anchor — its same-bit run plus the complete adjacent run on
// each side, the only runs a splice, departure, or bit extension at the
// anchor's position can have changed. Whole marks the entire list dirty,
// used when a transformation rebuilt it and could not balance it.
type ListRef struct {
	Node  *Node
	Level int32 // narrow on purpose: dirty sets hold thousands of these
	Whole bool
}

// JoinEffect reports what a local join touched.
type JoinEffect struct {
	// Touched names every list that gained a member or whose run structure
	// changed (a newly drawn bit turns a run boundary into a run member).
	Touched []ListRef
	// Extended lists the pre-existing peers whose membership vectors grew
	// to stay distinct from the newcomer.
	Extended []*Node
	// Work is a deterministic count of the nodes examined while splicing —
	// the locality measure reported by experiment E16.
	Work int
}

// Insert adds a real node with the given key and id, assigning membership
// bits via brancher until singleton (standard skip-graph join, §IV-G).
func (g *Graph) Insert(key Key, id int64, brancher Brancher) *Node {
	n, _ := g.InsertTracked(key, id, brancher)
	return n
}

// InsertTracked adds a real node via a local join: the newcomer splices
// into the base list, then draws membership bits level by level, linking
// into exactly the lists it enters. A real peer left directly adjacent to
// another real node at the top of its vector draws further bits until
// distinct again; no node outside the join's search path is touched. With
// a nil brancher the node only splices into the base list (it carries no
// bits to go higher). The returned effect names every touched list — the
// dirty set a scoped balance repair must examine — and every extended peer.
func (g *Graph) InsertTracked(key Key, id int64, brancher Brancher) (*Node, JoinEffect) {
	n := NewNode(key, id)
	g.SpliceIn(n) // a fresh node carries no bits: level 0 only
	eff := JoinEffect{Touched: []ListRef{{Node: n, Level: 0}}, Work: 1}
	if brancher != nil {
		g.localJoin(n, brancher, &eff)
	}
	return n, eff
}

// localJoin assigns membership bits to the freshly spliced node until it is
// singleton at its top level. Invariant restored: no real node sits
// directly next to another real node at the top of its own vector (the
// distinctness the validator checks), so any real peer the newcomer lands
// beside at that peer's top level extends too, cascading only along
// adjacency. Bits are drawn one level at a time in key order — the same
// order a global relink restricted to these lists would use.
func (g *Graph) localJoin(n *Node, brancher Brancher, eff *JoinEffect) {
	cand := []*Node{n}
	for _, nb := range []*Node{n.Prev(0), n.Next(0)} {
		if nb != nil && !nb.dummy && !nb.dead && nb.BitsLen() == 0 {
			cand = append(cand, nb)
		}
	}
	extended := make(map[*Node]bool)
	for level := 0; len(cand) > 0; level++ {
		bitLevel := level + 1
		ext := cand[:0]
		for _, x := range cand {
			if x.BitsLen() != level {
				continue // already extended past this level
			}
			if x == n {
				// The newcomer keeps drawing while it has any neighbour —
				// dummies included — exactly like the recursive construction.
				if x.Prev(level) != nil || x.Next(level) != nil {
					ext = append(ext, x)
				}
			} else if hasRealNeighbor(x, level) {
				ext = append(ext, x)
			}
		}
		if len(ext) == 0 {
			return
		}
		sort.Slice(ext, func(i, j int) bool { return ext[i].key.Less(ext[j].key) })
		for _, x := range ext {
			x.SetBit(bitLevel, brancher(x, bitLevel))
		}
		var next []*Node
		queued := make(map[*Node]bool, len(ext)+2)
		push := func(x *Node) {
			if !queued[x] {
				queued[x] = true
				next = append(next, x)
			}
		}
		for _, x := range ext {
			eff.Work += g.spliceAtLevel(x, bitLevel)
			eff.Touched = append(eff.Touched, ListRef{Node: x, Level: int32(bitLevel)})
			if x != n && !extended[x] {
				extended[x] = true
				eff.Extended = append(eff.Extended, x)
			}
			push(x)
			// Splicing x can strand a real neighbour at the top of its
			// vector; it must extend next round.
			for _, nb := range []*Node{x.Prev(bitLevel), x.Next(bitLevel)} {
				if nb != nil && !nb.dummy && !nb.dead && nb.BitsLen() == bitLevel {
					push(nb)
				}
			}
		}
		cand = next
	}
}

// spliceAtLevel links x into the level-m list it belongs to by scanning its
// level-(m-1) list for the nearest members sharing x's level-m bit. The
// a-balance property bounds the scan to O(a) plus intervening dummies. It
// returns the number of nodes examined.
func (g *Graph) spliceAtLevel(x *Node, m int) int {
	work := 1
	b := x.Bit(m)
	var left, right *Node
	for y := x.Prev(m - 1); y != nil; y = y.Prev(m - 1) {
		work++
		if y.HasBit(m) && y.Bit(m) == b {
			left = y
			break
		}
	}
	for y := x.Next(m - 1); y != nil; y = y.Next(m - 1) {
		work++
		if y.HasBit(m) && y.Bit(m) == b {
			right = y
			break
		}
	}
	g.linkBetween(x, m, left, right)
	return work
}

// hasRealNeighbor reports whether x has a live real (non-dummy, non-dead)
// direct neighbour at level l. At l == x.BitsLen() this is exactly the
// distinctness requirement: a real node must not share the top of its
// membership vector with an adjacent live real node. Dead neighbours count
// like dummies — they cannot participate in a bit-extension round, and their
// eventual repair splices them out anyway.
func hasRealNeighbor(x *Node, l int) bool {
	if p := x.Prev(l); p != nil && !p.dummy && !p.dead {
		return true
	}
	if nx := x.Next(l); nx != nil && !nx.dummy && !nx.dead {
		return true
	}
	return false
}

// ExtendDistinctFrom restores vector distinctness after a splice-out brought
// previously separated nodes together: any candidate real live node adjacent
// to another real live node at the top of its own vector draws further bits
// until distinct again, cascading only along adjacency — the same rule
// localJoin enforces for joins. A graceful leave never needs this (two live
// real nodes are never adjacent at either one's top level), but removing a
// DEAD node can: a corpse is exempt from the distinctness invariant, so it
// may be the only thing separating two live nodes that share a full prefix.
// Candidates no longer in the graph (or dummy/dead) are skipped. The effect
// names every touched list and extended node, like InsertTracked.
func (g *Graph) ExtendDistinctFrom(cands []*Node, brancher Brancher) JoinEffect {
	var eff JoinEffect
	// The common case — no candidate is stranded — extends nothing, queues
	// nothing and draws nothing, so it must not pay for the bookkeeping.
	stranded := false
	for _, x := range cands {
		if !x.dummy && !x.dead && g.Contains(x) && hasRealNeighbor(x, x.BitsLen()) {
			stranded = true
			break
		}
	}
	if !stranded {
		return eff
	}
	queue := append([]*Node(nil), cands...)
	queued := make(map[*Node]bool, len(cands))
	for _, x := range cands {
		queued[x] = true
	}
	extended := make(map[*Node]bool)
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		queued[x] = false
		if x.dummy || x.dead || !g.Contains(x) {
			continue
		}
		for hasRealNeighbor(x, x.BitsLen()) {
			bitLevel := x.BitsLen() + 1
			x.SetBit(bitLevel, brancher(x, bitLevel))
			eff.Work += g.spliceAtLevel(x, bitLevel)
			eff.Touched = append(eff.Touched, ListRef{Node: x, Level: int32(bitLevel)})
			if !extended[x] {
				extended[x] = true
				eff.Extended = append(eff.Extended, x)
			}
			// x stays a member of every lower list it shared with its old
			// neighbours, so THEY may still be stranded — and the splice can
			// strand x's new-level neighbours too. Queue both sides.
			for _, nb := range []*Node{x.Prev(bitLevel - 1), x.Next(bitLevel - 1),
				x.Prev(bitLevel), x.Next(bitLevel)} {
				if nb != nil && !nb.dummy && !nb.dead && !queued[nb] {
					queued[nb] = true
					queue = append(queue, nb)
				}
			}
		}
	}
	return eff
}

// Remove deletes the node with the given key (standard skip-graph leave).
// It returns the removed node, or nil if the key is absent. Callers that
// need the departure's dirty set use RemoveTracked instead — Remove itself
// computes none, so repair paths that already hold the refs pay nothing
// extra.
func (g *Graph) Remove(key Key) *Node {
	n := g.byKey[key]
	if n == nil {
		return nil
	}
	g.unlink(n)
	return n
}

// RemoveTracked deletes the node with the given key and returns, for every
// list the node occupied, a ListRef anchored at a surviving neighbour — the
// dirty set a scoped balance repair must re-examine, since a departure can
// merge two same-bit runs. It returns (nil, nil) when the key is absent.
func (g *Graph) RemoveTracked(key Key) (*Node, []ListRef) {
	n := g.byKey[key]
	if n == nil {
		return nil, nil
	}
	refs := AppendExListRefs(nil, n)
	g.unlink(n)
	return n, refs
}

// RespreadDummies relabels the dummies keyed under at's primary — at's
// level-0 neighbours, either way, that share its Primary and have a non-zero
// Minor — evenly over the minor space, in their present order, and returns
// how many there are. A dummy's key matters only by that order, so no link
// moves; the keys and the key index do.
// It is the way out of a gap that has filled up: free keys are found by
// bisection, which halves the space toward one side every time, so some
// thirty breakers placed beside one real node leave dummies on adjacent
// minors while the rest of the space is empty.
func (g *Graph) RespreadDummies(at *Node) int {
	p := at.key.Primary
	first := at
	for l := first.Prev(0); l != nil && l.key.Primary == p && l.key.Minor > 0; l = l.Prev(0) {
		first = l
	}
	if first.key.Minor == 0 {
		first = first.Next(0)
	}
	// Every old key leaves the index before any new one enters: a new key
	// may equal another dummy's old one.
	m := 0
	for x := first; x != nil && x.key.Primary == p; x = x.Next(0) {
		delete(g.byKey, x.key)
		m++
	}
	stride := int32(MinorSpace / (m + 1))
	for x, i := first, int32(1); x != nil && x.key.Primary == p; x, i = x.Next(0), i+1 {
		x.key.Minor = i * stride
		g.byKey[x.key] = x
	}
	return m
}

// RemoveAll deletes a batch of nodes and appends each one's departure dirty
// set below the given level to refs. Like SpliceInBelowAll it is for a
// caller about to rebuild the level-`below` list the nodes belong to end to
// end, which has no use for dirty regions inside what it rebuilds. A node's
// refs are taken at the moment it is unlinked, after the nodes before it
// have gone, so the anchors are what one-by-one removal records.
func (g *Graph) RemoveAll(nodes []*Node, below int, refs []ListRef) []ListRef {
	for _, n := range nodes {
		refs = appendExListRefs(refs, n, below)
		g.unlink(n)
	}
	return refs
}

// AppendExListRefs appends to dst, for every list n occupies, a ListRef
// anchored at a neighbour, so the refs stay valid after n itself leaves the
// graph. This is the dirty set of a departure: each level's run structure
// can only have changed around the vacated position.
func AppendExListRefs(dst []ListRef, n *Node) []ListRef {
	return appendExListRefs(dst, n, len(n.next))
}

// appendExListRefs is AppendExListRefs for the lists below a level.
func appendExListRefs(dst []ListRef, n *Node, below int) []ListRef {
	for l := 0; l <= n.MaxLinkedLevel() && l < below; l++ {
		if p := n.Prev(l); p != nil {
			dst = append(dst, ListRef{Node: p, Level: int32(l)})
		} else if nx := n.Next(l); nx != nil {
			dst = append(dst, ListRef{Node: nx, Level: int32(l)})
		}
	}
	return dst
}

// Verify checks every structural invariant: the base list end to end (it
// starts at the head, is strictly key-ordered, holds N() nodes, and the key
// index names exactly its members), the height histogram, link symmetry,
// and that each level-i list is exactly the key-ordered set of nodes
// sharing an i-bit membership prefix. It returns the first violation.
func (g *Graph) Verify() error {
	if g.head != nil && g.head.Prev(0) != nil {
		return fmt.Errorf("head %v has a left neighbour %v", g.head.key, g.head.Prev(0).key)
	}
	nodes := make([]*Node, 0, g.n)
	for n := g.head; n != nil; n = n.Next(0) {
		if len(nodes) == g.n {
			return fmt.Errorf("base list runs past its %d nodes at %v", g.n, n.key)
		}
		if i := len(nodes); i > 0 && !nodes[i-1].key.Less(n.key) {
			return fmt.Errorf("base order violated at %v >= %v", nodes[i-1].key, n.key)
		}
		nodes = append(nodes, n)
	}
	if len(nodes) != g.n {
		return fmt.Errorf("base list holds %d nodes, N() says %d", len(nodes), g.n)
	}
	if len(g.byKey) != len(nodes) {
		return fmt.Errorf("byKey has %d entries, want %d", len(g.byKey), len(nodes))
	}
	maxLevel := 0
	var recount Graph // for its height histogram only
	for _, n := range nodes {
		if g.byKey[n.key] != n || n.owner != g {
			return fmt.Errorf("byKey[%v] = %v, want the node keyed so, owned by this graph", n.key, g.byKey[n.key])
		}
		if l := n.MaxLinkedLevel(); l > maxLevel {
			maxLevel = l
		}
		recount.addTop(n.linkedTop(), 1)
	}
	if !slices.Equal(recount.tops, g.tops) {
		return fmt.Errorf("height histogram %v, the nodes say %v", g.tops, recount.tops)
	}
	for level := 0; level <= maxLevel; level++ {
		// Expected lists: group nodes by level-length prefix, in key order.
		groups := make(map[string][]*Node)
		var order []string
		for _, n := range nodes {
			ok := true
			for i := 1; i <= level; i++ {
				if !n.HasBit(i) {
					ok = false
					break
				}
			}
			if !ok {
				// Node has no level-`level` membership; it must be singleton
				// (no links) at this level.
				if n.Next(level) != nil || n.Prev(level) != nil {
					return fmt.Errorf("node %v linked at level %d beyond its vector", n.key, level)
				}
				continue
			}
			p := prefixString(n, level)
			if _, seen := groups[p]; !seen {
				order = append(order, p)
			}
			groups[p] = append(groups[p], n)
		}
		for _, p := range order {
			list := groups[p]
			for i, n := range list {
				var wantPrev, wantNext *Node
				if i > 0 {
					wantPrev = list[i-1]
				}
				if i < len(list)-1 {
					wantNext = list[i+1]
				}
				if n.Prev(level) != wantPrev {
					return fmt.Errorf("node %v level %d: prev = %v, want %v", n.key, level, n.Prev(level), wantPrev)
				}
				if n.Next(level) != wantNext {
					return fmt.Errorf("node %v level %d: next = %v, want %v", n.key, level, n.Next(level), wantNext)
				}
			}
		}
	}
	return nil
}

func prefixString(n *Node, level int) string {
	buf := make([]byte, level)
	for i := 1; i <= level; i++ {
		buf[i-1] = '0' + n.bits[i]
	}
	return string(buf)
}
