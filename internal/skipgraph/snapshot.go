package skipgraph

// This file is the deep-copy snapshot: a Graph can be cloned into a fully
// independent twin that shares no memory with the original.
//
// The concurrent serving engine (internal/serve) no longer publishes clones —
// it publishes structurally shared Replicas built by a Publisher, which cost
// O(lists touched) per epoch instead of O(n); see replica.go for the read
// side and its race-safety audit, publisher.go for the write side. Clone
// stays for two jobs:
//
//   - Oracle: replica_test.go pins Replica routing, height, and range
//     extraction against a clone of the same graph state, so the two
//     snapshot mechanisms check each other.
//   - Fallback idiom: code that wants a frozen copy without attaching a
//     Publisher (one-shot analysis, experiments) can still take one.
//
// The original audit for sharing a clone across goroutines still holds: all
// route-path accessors (Route/RouteKeys, ByKey, DirectlyLinked, ListAt) are
// read-only, and Clone precomputes the height cache so Height() on a clone is
// a pure field read. A clone carries no dirty tracking (its track field is
// nil) regardless of whether the source graph had a Publisher attached.

// Clone returns a deep copy of the graph: fresh Node values with copied keys,
// identifiers, dummy flags, and membership vectors, re-linked level by level
// to mirror the original. The clone shares no memory with the receiver, so
// concurrent readers of the clone are unaffected by later mutations of the
// original (and vice versa). The height cache is precomputed, making every
// read-only accessor — including Height — safe for concurrent use on the
// clone as long as nobody mutates it.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		nodes:  make([]*Node, len(g.nodes)),
		byKey:  make(map[Key]*Node, len(g.nodes)),
		height: g.Height(), // precompute: keeps Height() read-only on the clone
	}
	twin := make(map[*Node]*Node, len(g.nodes))
	for i, n := range g.nodes {
		m := &Node{
			key:    n.key,
			id:     n.id,
			dummy:  n.dummy,
			dead:   n.dead,
			val:    append([]byte(nil), n.val...),
			ver:    n.ver,
			hasVal: n.hasVal,
			bits:   append([]byte(nil), n.bits...),
			next:   make([]*Node, len(n.next)),
			prev:   make([]*Node, len(n.prev)),
		}
		c.nodes[i] = m
		c.adopt(m)
		twin[n] = m
	}
	for i, n := range g.nodes {
		m := c.nodes[i]
		for l, x := range n.next {
			if x != nil {
				m.next[l] = twin[x]
			}
		}
		for l, x := range n.prev {
			if x != nil {
				m.prev[l] = twin[x]
			}
		}
	}
	return c
}
