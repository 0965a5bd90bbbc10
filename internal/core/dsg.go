package core

import (
	"fmt"
	"math/rand"

	"lsasg/internal/skipgraph"
)

// NewFromGraph wraps an existing skip graph in a DSG with default per-node
// state and a-balances it with one global repair — a no-op on a graph that
// is balanced already, like the tests' reconstructions of the paper's
// worked examples. Every mutation after that repairs what it dirtied before
// returning, so a DSG passes Validate whenever a caller can see it.
func NewFromGraph(g *skipgraph.Graph, cfg Config) *DSG {
	cfg = cfg.withDefaults()
	d := &DSG{
		cfg: cfg,
		g:   g,
		rng: rand.New(rand.NewSource(cfg.Seed + 1)),
	}
	maxID := int64(-1)
	for node := range g.All() {
		maxID = max(maxID, node.ID())
	}
	d.nextDummyID = maxID + 1
	if cfg.DummyIDBase > d.nextDummyID {
		d.nextDummyID = cfg.DummyIDBase
	}
	if cfg.Finder != nil {
		d.finder = cfg.Finder
	} else {
		d.finder = &AMFFinder{A: cfg.A, Rng: d.rng}
	}
	for node := range g.All() {
		node.Ext = d.freshState(node)
	}
	d.RepairBalance()
	return d
}

// Add joins a new node with the given id (key = id) using the local
// skip-graph join with random membership bits, initializes its DSG state,
// and repairs a-balance over exactly the lists the join touched (§IV-G).
// Nothing outside the join's search path — and the repair's knock-on
// lists — is read or written.
func (d *DSG) Add(id int64) (*skipgraph.Node, error) {
	key := skipgraph.KeyOf(id)
	if d.g.ByKey(key) != nil {
		return nil, fmt.Errorf("core: node %d already present", id)
	}
	n, eff := d.g.InsertTracked(key, id, d.randomBit)
	n.Ext = d.freshState(n)
	// The join may have lengthened adjacent peers' membership vectors to
	// keep them distinct from the newcomer; grow exactly those peers' state
	// arrays to match (a node is its own group at its new singleton levels,
	// §IV-B).
	for _, x := range eff.Extended {
		d.syncStateDepthFor(x)
	}
	d.joinScan += eff.Work
	d.RepairBalanceIn(eff.Touched, nil)
	return n, nil
}

// syncStateDepthFor extends one node's per-level state arrays to cover its
// current membership vector.
func (d *DSG) syncStateDepthFor(x *skipgraph.Node) {
	s := d.state(x)
	for lvl := len(s.G); lvl <= x.BitsLen()+1; lvl++ {
		s.setGroup(lvl, x.ID())
	}
}

// RemoveNode removes a node (standard skip-graph leave) and repairs
// a-balance over exactly the lists the departure touched (§IV-G): the
// node's exit can merge a same-bit run at each level it occupied, and
// those lists — anchored at surviving neighbours — are the entire dirty
// set.
func (d *DSG) RemoveNode(id int64) error {
	key := skipgraph.KeyOf(id)
	if n := d.g.ByKey(key); n != nil && n.Dead() {
		// A crashed node cannot run the leave-side protocol; its removal
		// goes through the crash-repair path (RepairCrashedID) instead.
		return fmt.Errorf("%w: %d", ErrCrashedNode, id)
	}
	n, refs := d.g.RemoveTracked(key)
	if n == nil {
		return fmt.Errorf("core: node %d not present", id)
	}
	d.RepairBalanceIn(refs, nil)
	return nil
}

// dummyRemovable reports whether removing dm keeps every list a-balanced.
func (d *DSG) dummyRemovable(dm *skipgraph.Node) bool {
	return skipgraph.RemovalKeepsBalance(dm, d.cfg.A)
}

// removeDummy splices a dummy out of the graph (its state goes with it), and — when
// the dummy was the only separator between two real live nodes sharing a
// membership prefix at the top of their vectors — extends those nodes until
// distinct again (the validator's adjacency invariant). It appends to dst
// the lists any such extension touched, which the balance-repair loops must
// fold back into their dirty sets: a longer vector means new list
// memberships, and those can carry fresh a-balance violations.
func (d *DSG) removeDummy(dm *skipgraph.Node, dst []skipgraph.ListRef) []skipgraph.ListRef {
	cands := d.liveRealNeighbours(dm)
	d.g.Remove(dm.Key())
	d.dummyCount--
	return append(dst, d.extendDistinct(cands)...)
}

// liveRealNeighbours collects, into repair scratch, n's live real neighbours
// at every level: the nodes n's departure can bring adjacent to each other.
func (d *DSG) liveRealNeighbours(n *skipgraph.Node) []*skipgraph.Node {
	cands := recycle(d.scratch.repair.cands)
	for l := 0; l <= n.MaxLinkedLevel(); l++ {
		if nb := n.Prev(l); nb != nil && !nb.IsDummy() && !nb.Dead() {
			cands = append(cands, nb)
		}
		if nb := n.Next(l); nb != nil && !nb.IsDummy() && !nb.Dead() {
			cands = append(cands, nb)
		}
	}
	d.scratch.repair.cands = cands
	return cands
}

// extendDistinct restores vector distinctness among cands after a
// splice-out, grows the extended nodes' state arrays to match, and returns
// the lists the extensions touched.
func (d *DSG) extendDistinct(cands []*skipgraph.Node) []skipgraph.ListRef {
	eff := d.g.ExtendDistinctFrom(cands, d.randomBit)
	for _, x := range eff.Extended {
		d.syncStateDepthFor(x)
	}
	return eff.Touched
}

// randomBit is the skipgraph.Brancher of every membership bit the DSG draws
// outside a transformation (joins, distinctness extensions).
func (d *DSG) randomBit(*skipgraph.Node, int) byte { return byte(d.rng.Intn(2)) }

// freeKeyIn finds a key strictly between a and b for which occupied is
// false, bisecting the open minor interval so repeated dummy placement
// keeps both halves splittable (dense minor+1 packing would exhaust the
// gap between two dummies). If the bisection path is fully occupied it
// falls back to a linear scan of the whole interval.
func freeKeyIn(a, b skipgraph.Key, occupied func(skipgraph.Key) bool) (skipgraph.Key, bool) {
	lo := a.Minor
	hi := int32(skipgraph.MinorSpace)
	if b.Primary == a.Primary {
		hi = b.Minor
	}
	for hi-lo >= 2 {
		mid := lo + (hi-lo)/2
		k := skipgraph.Key{Primary: a.Primary, Minor: mid}
		if !occupied(k) {
			return k, true
		}
		hi = mid
	}
	for minor := a.Minor + 1; ; minor++ {
		k := skipgraph.Key{Primary: a.Primary, Minor: minor}
		if !k.Less(b) || minor >= skipgraph.MinorSpace {
			return skipgraph.Key{}, false
		}
		if !occupied(k) {
			return k, true
		}
	}
}

// staticFreeKey finds an unused key strictly between a and b.
func (d *DSG) staticFreeKey(a, b skipgraph.Key) (skipgraph.Key, bool) {
	return freeKeyIn(a, b, func(k skipgraph.Key) bool { return d.g.ByKey(k) != nil })
}

// checkInvariants verifies the post-transformation guarantees used by the
// analysis: structural consistency, a direct u-v link (the self-adjusting
// model's requirement), and group/list coherence at every level.
func (d *DSG) checkInvariants(u, v *skipgraph.Node) error {
	if err := d.g.Verify(); err != nil {
		return fmt.Errorf("graph: %w", err)
	}
	if ok, _ := d.g.DirectlyLinked(u, v); !ok {
		return fmt.Errorf("nodes %d and %d not directly linked", u.ID(), v.ID())
	}
	// The pair's size-2 list carries the request timestamp (rule T1).
	dPrime := skipgraph.CommonPrefixLen(u, v)
	if got := d.state(u).timestamp(dPrime); got != d.clock {
		return fmt.Errorf("node %d timestamp at pair level %d is %d, want %d", u.ID(), dPrime, got, d.clock)
	}
	for x := range d.g.All() {
		if x.IsDummy() {
			continue
		}
		sx := d.state(x)
		// T6 invariant: no timestamps below the group-base.
		for i := 0; i < sx.B && i < len(sx.T); i++ {
			if sx.T[i] != 0 {
				return fmt.Errorf("node %d has timestamp %d at level %d below base %d", x.ID(), sx.T[i], i, sx.B)
			}
		}
		// State arrays never lag the membership vector.
		if x.BitsLen() >= len(sx.G)+1 {
			return fmt.Errorf("node %d vector depth %d exceeds group state %d", x.ID(), x.BitsLen(), len(sx.G))
		}
	}
	return nil
}
