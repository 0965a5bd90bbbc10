package skipgraph

// This file is the write side of copy-on-write snapshot publication: a
// Publisher owns one Graph's dirty-tracking and turns each batch of
// mutations into the next epoch's Replica by path-copying only what the
// batch touched.
//
// Design notes:
//
//   - Indirection through stable integer slots is what makes structural
//     sharing possible at all: skip-graph lists are doubly linked, so
//     sharing *Node pointers directly would cascade a copy of one node into
//     a copy of the whole graph (an unchanged neighbour cannot point at two
//     versions of a changed node). repNodes therefore name their neighbours
//     by slot, and only the slot→repNode mapping (a persistent radix trie)
//     is path-copied per publish.
//
//   - Touch tracking instruments the Graph's mutation choke points directly
//     (every link rewrite flows through Relink/spliceIn/spliceOut/
//     spliceAtLevel, every liveness change through Crash) rather than
//     threading per-operation ListRefs up through internal/core — the
//     choke points are provably complete, while a reported dirty set would
//     have to be trusted. Each node records its pre-touch top linked level
//     at FIRST touch per batch, which is what keeps the published height
//     incremental (a histogram delta) instead of an O(n) rescan.
//
//   - The touch log is bounded. If a batch (or an abandoned engine's graph
//     that keeps mutating without ever publishing) touches more nodes than
//     trackCap, tracking flips to overflow and the next Publish falls back
//     to a full rebuild — the same code path that builds epoch 0. Clone
//     remains available as the independent deep-copy oracle for tests.
//
//   - Single-writer contract: all Publisher methods, like all Graph
//     mutators, must be called from the mutating thread (the serve
//     adjuster, or whoever owns the graph). Readers get their memory
//     ordering from the atomic snapshot pointer the caller publishes
//     through (release on Store, acquire on Load).

import "sync"

const (
	repBits = 5
	repFan  = 1 << repBits
	repMask = repFan - 1
)

// trieNode is one node of the persistent slot trie. gen stamps the publish
// generation that created it: nodes created by the current Publish are
// still private and may be mutated in place; older nodes are shared with
// published replicas and must be copied before modification.
type trieNode struct {
	gen  uint64
	kids [repFan]*trieNode
	vals [repFan]*repNode
}

// touchAdded marks the sentinel pre-state of a node spliced into the graph
// this batch: it has no previous published top level to decrement.
const touchAdded = -2

// startTracking (re)arms dirty tracking on the graph, clearing any previous
// publisher's log. Attaching a new Publisher to a graph that already had
// one simply orphans the old one — its published replicas stay valid, its
// future Publish calls fall back to full rebuilds.
func (g *Graph) startTracking() {
	g.track = make(map[*Node]int)
	g.trackOver = false
}

// trackCap bounds the touch log; beyond it tracking overflows and the next
// publish rebuilds from scratch instead of replaying a log that would cost
// as much as the rebuild anyway.
func (g *Graph) trackCap() int {
	c := 2 * len(g.nodes)
	if c < 1024 {
		c = 1024
	}
	return c
}

// touch records a node about to be mutated (links or liveness), capturing
// its pre-touch top linked level the first time it is seen in the batch.
// It must run BEFORE the mutation. Nil track (no publisher attached) makes
// this a single branch.
func (g *Graph) touch(n *Node) {
	if g.track == nil || g.trackOver {
		return
	}
	if _, ok := g.track[n]; ok {
		return
	}
	if len(g.track) >= g.trackCap() {
		g.trackOver = true
		return
	}
	g.track[n] = linkTop(n)
}

// touchAll records every node of a list subset about to be relinked.
func (g *Graph) touchAll(nodes []*Node) {
	if g.track == nil || g.trackOver {
		return
	}
	for _, n := range nodes {
		g.touch(n)
	}
}

// touchNew records a node being spliced into the graph for the first time
// this batch. A node removed and re-added within one batch keeps its
// original pre-touch record.
func (g *Graph) touchNew(n *Node) {
	if g.track == nil || g.trackOver {
		return
	}
	if _, ok := g.track[n]; ok {
		return
	}
	if len(g.track) >= g.trackCap() {
		g.trackOver = true
		return
	}
	g.track[n] = touchAdded
}

// linkTop returns the highest level at which n has a neighbour, -1 when it
// has none (unlike MaxLinkedLevel, which reports 0 for both "linked only at
// level 0" and "not linked at all" — the height histogram needs the
// difference).
func linkTop(n *Node) int {
	for i := len(n.next) - 1; i >= 0; i-- {
		if n.next[i] != nil || n.prev[i] != nil {
			return i
		}
	}
	return -1
}

// Publisher incrementally publishes immutable Replicas of one Graph. Create
// it with NewPublisher (which builds the epoch-0 replica) and call Publish
// after each batch of mutations, from the mutating thread.
type Publisher struct {
	g *Graph

	slots map[*Node]int32 // live node → slot
	free  []int32         // recycled slots
	next  int32           // first never-used slot
	root  *trieNode
	depth int
	cap   int32
	gen   uint64

	// counts[l] is the number of nodes whose top linked level is l; the
	// published height falls out as (top non-zero index)+1. Maintained as a
	// delta per publish from each touched node's pre/post top level.
	counts []int

	// keys accelerates key→slot resolution for every replica; entries are
	// added when a node first gets a slot and removed (conditionally, so a
	// same-batch re-add of the key is never clobbered) when it leaves.
	keys *sync.Map

	cur *Replica
}

// NewPublisher attaches dirty tracking to g and builds the epoch-0 replica
// (one O(n) pass — the only full-graph walk in a healthy publisher's life).
// Any previously attached publisher is orphaned; see startTracking.
func NewPublisher(g *Graph) *Publisher {
	p := &Publisher{g: g}
	g.startTracking()
	p.cur = p.rebuild()
	return p
}

// Current returns the most recently published replica.
func (p *Publisher) Current() *Replica { return p.cur }

// Publish freezes the mutations since the last publish into a new Replica,
// path-copying the touched nodes and structurally sharing everything else.
// Cost is O(touched · trie depth). A publish with nothing touched returns
// the current replica unchanged.
func (p *Publisher) Publish() *Replica {
	g := p.g
	if g.trackOver {
		g.startTracking()
		p.cur = p.rebuild()
		return p.cur
	}
	if len(g.track) == 0 {
		return p.cur
	}
	p.gen++
	type upd struct {
		n    *Node
		slot int32
	}
	// Pass 1: settle slot assignments (removals free, arrivals allocate) and
	// the height histogram, so pass 2 can resolve every neighbour to a slot.
	ups := make([]upd, 0, len(g.track))
	for n, pre := range g.track {
		if !g.Contains(n) {
			// Removed this batch (or added and removed within it).
			slot, ok := p.slots[n]
			if !ok {
				continue
			}
			delete(p.slots, n)
			p.setSlot(slot, nil)
			p.keys.CompareAndDelete(n.key, slot)
			p.free = append(p.free, slot)
			if pre >= 0 {
				p.counts[pre]--
			}
			continue
		}
		slot, ok := p.slots[n]
		if !ok {
			slot = p.alloc()
			p.slots[n] = slot
			p.keys.Store(n.key, slot)
		}
		if pre >= 0 {
			p.counts[pre]--
		}
		if top := linkTop(n); top >= 0 {
			p.bump(top)
		}
		ups = append(ups, upd{n, slot})
	}
	for _, u := range ups {
		p.setSlot(u.slot, p.repOf(u.n))
	}
	clear(g.track)
	p.cur = p.makeReplica()
	return p.cur
}

// rebuild discards all incremental state and builds a replica from the full
// graph: the epoch-0 constructor and the overflow fallback.
func (p *Publisher) rebuild() *Replica {
	g := p.g
	p.gen++
	p.slots = make(map[*Node]int32, len(g.nodes))
	p.free = nil
	p.next = 0
	p.root = &trieNode{gen: p.gen}
	p.depth = 0
	p.cap = repFan
	p.counts = p.counts[:0]
	p.keys = &sync.Map{}
	for _, n := range g.nodes {
		slot := p.alloc()
		p.slots[n] = slot
		p.keys.Store(n.key, slot)
		if top := linkTop(n); top >= 0 {
			p.bump(top)
		}
	}
	for _, n := range g.nodes {
		p.setSlot(p.slots[n], p.repOf(n))
	}
	p.cur = p.makeReplica()
	return p.cur
}

func (p *Publisher) makeReplica() *Replica {
	head := int32(-1)
	if len(p.g.nodes) > 0 {
		head = p.slots[p.g.nodes[0]]
	}
	return &Replica{
		root:  p.root,
		depth: p.depth,
		cap:   p.cap,
		head:  head,
		hgt:   p.height(),
		n:     len(p.g.nodes),
		keys:  p.keys,
	}
}

func (p *Publisher) height() int {
	for l := len(p.counts) - 1; l >= 0; l-- {
		if p.counts[l] > 0 {
			return l + 1
		}
	}
	return 0
}

func (p *Publisher) bump(l int) {
	for len(p.counts) <= l {
		p.counts = append(p.counts, 0)
	}
	p.counts[l]++
}

// alloc hands out a slot, recycling freed ones first and growing the trie
// by one level whenever the slot space fills.
func (p *Publisher) alloc() int32 {
	if k := len(p.free); k > 0 {
		s := p.free[k-1]
		p.free = p.free[:k-1]
		return s
	}
	s := p.next
	p.next++
	for s >= p.cap {
		root := &trieNode{gen: p.gen}
		root.kids[0] = p.root
		p.root = root
		p.depth++
		p.cap *= repFan
	}
	return s
}

// setSlot writes a slot with path-copying: every trie node on the slot's
// path that predates this publish generation is cloned first, so versions
// reachable from published replicas stay frozen.
func (p *Publisher) setSlot(slot int32, v *repNode) {
	p.root = p.fresh(p.root)
	nd := p.root
	for l := p.depth; l > 0; l-- {
		idx := (slot >> (uint(l) * repBits)) & repMask
		child := nd.kids[idx]
		if child == nil {
			child = &trieNode{gen: p.gen}
		} else {
			child = p.fresh(child)
		}
		nd.kids[idx] = child
		nd = child
	}
	nd.vals[slot&repMask] = v
}

// fresh returns nd if it was created by the current publish, else a private
// copy stamped with the current generation.
func (p *Publisher) fresh(nd *trieNode) *trieNode {
	if nd.gen == p.gen {
		return nd
	}
	c := *nd
	c.gen = p.gen
	return &c
}

// repOf freezes a node's current link and liveness state. Every linked
// neighbour must already hold a slot — guaranteed because linking to a node
// touches it, so a neighbour is either untouched (slot from an earlier
// epoch) or settled in pass 1 of this publish.
func (p *Publisher) repOf(n *Node) *repNode {
	rn := &repNode{h: n, dead: n.dead, val: n.val, ver: n.ver, hasVal: n.hasVal}
	top := linkTop(n)
	if top >= 0 {
		buf := make([]int32, 2*(top+1))
		rn.next = buf[:top+1]
		rn.prev = buf[top+1:]
		for l := 0; l <= top; l++ {
			rn.next[l] = p.slotRef(n.next[l])
			rn.prev[l] = p.slotRef(n.prev[l])
		}
	}
	return rn
}

func (p *Publisher) slotRef(n *Node) int32 {
	if n == nil {
		return -1
	}
	s, ok := p.slots[n]
	if !ok {
		panic("skipgraph: publisher met a linked node without a slot (mutation bypassed touch tracking)")
	}
	return s
}
