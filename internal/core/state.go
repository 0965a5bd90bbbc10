package core

import (
	"fmt"
	"math/rand"
	"slices"

	"lsasg/internal/amf"
	"lsasg/internal/skipgraph"
)

// nodeState is the paper's per-node DSG state (§IV-B): a timestamp, a
// group-id and an is-dominating-group flag per level, plus the group-base.
// Slices grow on demand; level indices match the skip graph's levels.
type nodeState struct {
	T []int64 // T[d]: timestamp for level d
	G []int64 // G[d]: group-id for level d
	D []bool  // D[d]: is-dominating-group for level d
	B int     // group-base (Appendix C)
}

// dummyRecord is a dummy's node, its DSG state and — for the usual shallow
// dummy — the state's group-ids and the node's links, in one allocation:
// they are made together, read together and die together. It is 384 bytes,
// a size class of whole cache lines, so every record's node starts a line.
// The node's Ext names the record, which is how a dummy leaving the graph is
// found again for reuse (DSG.retire).
type dummyRecord struct {
	n      skipgraph.Node
	s      nodeState
	groups [6]int64
	links  [8]*skipgraph.Node
}

// newDummy creates a detached dummy with the given key and identifier, whose
// membership vector will have depth bits, together with its state: its own
// group at every level (§IV-B), based at its top level. A dummy takes no
// part in transformations (§IV-F), so it never receives a timestamp or an
// is-dominating flag: T and D stay empty, which the accessors read as zero
// and false. The caller assigns the bits. The record is a retired dummy's
// when an earlier operation left one on the free list (see the package
// comment), with whatever storage its links and group-ids had grown into,
// and a new one otherwise.
func (d *DSG) newDummy(key skipgraph.Key, id int64, depth int) *skipgraph.Node {
	var r *dummyRecord
	if k := len(d.free) - 1; k >= 0 {
		r, d.free[k], d.free = d.free[k], nil, d.free[:k]
		skipgraph.ReuseDummy(&r.n, key, id)
		r.s = nodeState{G: r.s.G[:0]}
	} else {
		r = new(dummyRecord)
		skipgraph.InitDummy(&r.n, key, id, r.links[:])
		r.s.G = r.groups[:0]
	}
	r.s.G = slices.Grow(r.s.G, depth+2)[:depth+2]
	for i := range r.s.G {
		r.s.G[i] = id
	}
	r.s.B = depth
	r.n.Ext = r
	return &r.n
}

// retire records that a dummy has left the graph, so its record can serve a
// later newDummy once the operation in progress has returned (recycleDummies).
// A node that is not a dummyRecord's is left to the garbage collector.
func (d *DSG) retire(n *skipgraph.Node) {
	if r, ok := n.Ext.(*dummyRecord); ok {
		d.retired = append(d.retired, r)
	}
}

// recycleDummies moves the records retired so far onto the free list. It
// runs where an operation ends, when nothing can reach them any more.
func (d *DSG) recycleDummies() {
	d.free = append(d.free, d.retired...)
	d.retired = recycle(d.retired)
}

// stateOf returns the DSG state a node carries, nil if it has none.
func stateOf(n *skipgraph.Node) *nodeState {
	switch x := n.Ext.(type) {
	case *nodeState:
		return x
	case *dummyRecord:
		return &x.s
	}
	return nil
}

func (s *nodeState) ensure(level int) {
	for len(s.T) <= level {
		s.T = append(s.T, 0)
	}
	for len(s.G) <= level {
		s.G = append(s.G, -1)
	}
	for len(s.D) <= level {
		s.D = append(s.D, false)
	}
}

func (s *nodeState) timestamp(d int) int64 {
	if d < 0 || d >= len(s.T) {
		return 0
	}
	return s.T[d]
}

func (s *nodeState) setTimestamp(d int, v int64) {
	if d < 0 {
		return
	}
	s.ensure(d)
	s.T[d] = v
}

func (s *nodeState) group(d int) int64 {
	if d < 0 {
		return -1
	}
	if d >= len(s.G) {
		if len(s.G) == 0 {
			return -1
		}
		// Above the assigned range a node is alone; its group defaults to
		// the highest assigned one.
		return s.G[len(s.G)-1]
	}
	return s.G[d]
}

func (s *nodeState) setGroup(d int, g int64) {
	s.ensure(d)
	s.G[d] = g
}

func (s *nodeState) dominating(d int) bool {
	if d < 0 || d >= len(s.D) {
		return false
	}
	return s.D[d]
}

func (s *nodeState) setDominating(d int, v bool) {
	s.ensure(d)
	s.D[d] = v
}

// Config parameterizes a DSG instance.
type Config struct {
	// A is the a-balance parameter (§III); it must be ≥ 2. Defaults to 4.
	A int
	// Seed drives all randomness (AMF skip lists).
	Seed int64
	// Finder overrides the median-finding subroutine; nil selects the
	// paper's AMF with parameter A.
	Finder MedianFinder
	// DummyIDBase, when > 0, is the first identifier handed to dummy nodes.
	// Dummy ids never collide with real ids inside one graph by construction,
	// but a sharded deployment (internal/shard) migrates real nodes between
	// graphs, so each shard gets its own disjoint dummy-id space to keep
	// group ids unambiguous after any migration history.
	DummyIDBase int64
}

func (c Config) withDefaults() Config {
	if c.A == 0 {
		c.A = 4
	}
	if c.A < 2 {
		panic(fmt.Sprintf("core: balance parameter must be >= 2, got %d", c.A))
	}
	return c
}

// DSG is a self-adjusting skip graph: the topology plus the per-node DSG
// state and the logical clock. A node's state hangs off the node itself
// (skipgraph.Node.Ext), so it is reached without a lookup and leaves the
// DSG with the node. All methods are single-threaded, matching the paper's
// sequential request model.
type DSG struct {
	cfg    Config
	g      *skipgraph.Graph
	rng    *rand.Rand
	finder MedianFinder
	clock  int64

	nextDummyID int64
	dummyCount  int

	// retired holds the records of the dummies that have left the graph
	// during the operation in progress, and free those of dummies gone in
	// earlier ones, which newDummy reuses (see the package comment).
	retired, free []*dummyRecord

	// kvSeq is the value-version clock: each applied Put gets the next
	// version, and migration restores bump it past carried versions so
	// per-key versions stay monotonic across shard moves.
	kvSeq int64

	// Cumulative a-balance repair work (dummy insertions/removals by
	// RepairBalance), read via RepairStats by the experiments' trace driver.
	repairInserted int
	repairRemoved  int

	// pending is the dirty record a transformation hands AdjustAccess: the lists
	// it touched without rebuilding them (destroyed dummies' ex-lists, fresh
	// dummies' lists below alpha) and, in pendingDummies, the dummies of the
	// region it did rebuild, in key order. AdjustAccess repairs exactly that and
	// empties both, so they hold nothing between calls.
	pending        []skipgraph.ListRef
	pendingDummies []*skipgraph.Node

	// Deterministic locality counters (experiment E16): nodes examined
	// while splicing local joins, and nodes scanned by scoped balance
	// repairs.
	joinScan   int
	repairScan int

	// Crash-failure bookkeeping (experiment E20): cumulative crashes,
	// route/transform-time detections of dead peers, and completed crash
	// repairs.
	crashCount       int
	crashDetectCount int
	crashRepairCount int

	// scratch is the adjuster's reusable arena (see the package comment).
	scratch scratch
}

// New creates a DSG over n nodes with keys and identifiers 0..n-1. The
// initial topology is a random skip graph, a-balanced by NewFromGraph (its
// independent membership bits carry no balance guarantee); initial
// timestamps are zero, each node is its own group at every level, and each
// group-base is the node's singleton level, per §IV-B and Appendix C.
func New(n int, cfg Config) *DSG {
	return NewFromGraph(skipgraph.NewRandom(n, cfg.Seed), cfg)
}

// freshState initializes a node's DSG state with default values.
func (d *DSG) freshState(node *skipgraph.Node) *nodeState {
	s := &nodeState{B: d.g.SingletonLevel(node)}
	top := node.BitsLen() + 1
	s.ensure(top)
	for i := range s.G {
		s.G[i] = node.ID()
	}
	return s
}

// Graph exposes the underlying skip graph (read-only use expected).
func (d *DSG) Graph() *skipgraph.Graph { return d.g }

// Clock returns the logical time (number of served requests).
func (d *DSG) Clock() int64 { return d.clock }

// A returns the balance parameter.
func (d *DSG) A() int { return d.cfg.A }

// DummyCount returns the number of dummy nodes currently in the graph.
func (d *DSG) DummyCount() int { return d.dummyCount }

// NodeByID returns the real node with identifier id (id == key primary).
func (d *DSG) NodeByID(id int64) *skipgraph.Node {
	return d.g.ByKey(skipgraph.KeyOf(id))
}

// state returns the DSG state of a node, creating it if missing.
func (d *DSG) state(n *skipgraph.Node) *nodeState {
	if s := stateOf(n); s != nil {
		return s
	}
	s := d.freshState(n)
	n.Ext = s
	return s
}

// Timestamp returns T^x_d for a node (0 when unset), for tests and tools.
func (d *DSG) Timestamp(n *skipgraph.Node, level int) int64 {
	return d.state(n).timestamp(level)
}

// Group returns G^x_d for a node.
func (d *DSG) Group(n *skipgraph.Node, level int) int64 {
	return d.state(n).group(level)
}

// SetStateForTest force-sets a node's full DSG state; used by tests that
// reconstruct the paper's worked examples mid-history.
func (d *DSG) SetStateForTest(n *skipgraph.Node, ts []int64, groups []int64, dominating []bool, base int) {
	s := d.state(n)
	s.T = append([]int64(nil), ts...)
	s.G = append([]int64(nil), groups...)
	if dominating != nil {
		s.D = append([]bool(nil), dominating...)
	}
	s.B = base
}

// SetClockForTest force-sets the logical clock.
func (d *DSG) SetClockForTest(t int64) { d.clock = t }

// priorityOf is a typed alias to keep rule code readable.
type priority = amf.Value
