package core

import (
	"fmt"

	"lsasg/internal/skipgraph"
)

// Validate is the full-graph invariant validator backing the churn harness:
// it checks every structural guarantee the analysis relies on, over the
// whole network, independent of any particular request. The trace driver
// and the fuzz tests call it after every event; experiments sample it.
// Validate is deliberately global — it is the correctness oracle the scoped
// repair paths (RepairBalanceIn and the local join/leave) are measured
// against, so it must not share their dirty-list bookkeeping.
//
// Checked, in order:
//  1. structure — strictly sorted level-0 list, link symmetry, and every
//     level-i list being exactly the key-ordered run of nodes sharing an
//     i-bit membership prefix (skipgraph.Graph.Verify);
//  2. membership-vector consistency — real nodes key their id's primary
//     slot, dummies occupy minor slots, and no two real nodes share a full
//     membership vector (every real node is singleton past its vector);
//  3. a-balance — no level-d list contains more than `a` consecutive
//     members with the same level-(d+1) bit (§III);
//  4. dummy bookkeeping — DummyCount matches the graph, and every node
//     carries a DSG state of its own: none is missing one, no two share one;
//  5. per-node state sanity — no timestamps below the group-base (rule T6)
//     and state arrays at least as deep as the membership vector.
//
// Validate never mutates the DSG. It returns the first violation found.
func (d *DSG) Validate() error {
	if err := d.g.Verify(); err != nil {
		return fmt.Errorf("structure: %w", err)
	}
	dummies := 0
	for x := range d.g.All() {
		if x.IsDummy() {
			dummies++
			if x.Key().Minor == 0 {
				return fmt.Errorf("vector: dummy %d occupies primary key slot %v", x.ID(), x.Key())
			}
		} else {
			if x.Key() != skipgraph.KeyOf(x.ID()) {
				return fmt.Errorf("vector: real node %d keyed %v, want %v", x.ID(), x.Key(), skipgraph.KeyOf(x.ID()))
			}
			// Past its membership vector a real node must be alone among
			// live real nodes; only dummies — and crashed peers, which
			// cannot extend their vectors and whose repair splices them out
			// — may share its top list (dummies stop splitting by design,
			// §IV-F).
			if x.Dead() {
				continue
			}
			top := x.BitsLen()
			for _, nb := range []*skipgraph.Node{x.Prev(top), x.Next(top)} {
				if nb != nil && !nb.IsDummy() && !nb.Dead() {
					return fmt.Errorf("vector: real nodes %d and %d share the full vector %q",
						x.ID(), nb.ID(), x.MembershipVector())
				}
			}
		}
	}
	if viols := d.g.BalanceViolations(d.cfg.A); len(viols) > 0 {
		return fmt.Errorf("balance: %d violation(s), first: %s", len(viols), viols[0])
	}
	if dummies != d.dummyCount {
		return fmt.Errorf("dummies: bookkeeping says %d, graph holds %d", d.dummyCount, dummies)
	}
	owner := make(map[*nodeState]*skipgraph.Node, d.g.N())
	for x := range d.g.All() {
		sx := stateOf(x)
		if sx == nil {
			return fmt.Errorf("state: node %d has no DSG state", x.ID())
		}
		if y, shared := owner[sx]; shared {
			return fmt.Errorf("state: nodes %d and %d share one DSG state", y.ID(), x.ID())
		}
		owner[sx] = x
		if sx.B < 0 {
			return fmt.Errorf("state: node %d has negative group-base %d", x.ID(), sx.B)
		}
		for i := 0; i < sx.B && i < len(sx.T); i++ {
			if sx.T[i] != 0 {
				return fmt.Errorf("state: node %d has timestamp %d at level %d below base %d",
					x.ID(), sx.T[i], i, sx.B)
			}
		}
		if x.BitsLen() >= len(sx.G)+1 {
			return fmt.Errorf("state: node %d vector depth %d exceeds group state %d",
				x.ID(), x.BitsLen(), len(sx.G))
		}
	}
	return nil
}

// RepairBalance restores the a-balance property across the whole graph and
// returns how many dummies it inserted and removed. Over-long runs are
// first shortened by dropping redundant dummies (ones whose removal leaves
// every list balanced); only all-real or irreducible runs get a fresh dummy
// chain-breaker. One repair pass can itself lengthen a run at a lower level
// (a new dummy carries the prefix bits of its left neighbour), so the
// repair iterates to a fixed point. This is the global repair the
// constructors run once over the initial topology (random membership bits
// carry no balance guarantee) and the oracle the scoped repairs are tested
// against; every mutation after construction (Adjust, Add, RemoveNode, the
// crash repair) uses RepairBalanceIn over the lists it actually touched. On
// a balanced graph it changes nothing.
func (d *DSG) RepairBalance() (inserted, removed int) {
	// Each pass strictly shrinks the total violation mass except for the
	// rare lower-level lengthening, so a generous cap only guards against a
	// repair that cannot make progress (key-space exhaustion).
	for pass := 0; pass < 4*d.g.N()+16; pass++ {
		ins, rem, _ := d.repairViolations(d.g.BalanceViolations(d.cfg.A), nil)
		inserted += ins
		removed += rem
		if ins == 0 && rem == 0 {
			break
		}
	}
	// Garbage-collect dummies the repairs above (or earlier transformations)
	// left redundant: any dummy whose removal keeps every list balanced is
	// pure overhead — it stretches routing paths without breaking a chain.
	// Removal only shortens runs, so one dummy's departure can make another
	// removable; sweep until a pass finds nothing.
	var extRefs []skipgraph.ListRef
	for {
		swept := 0
		var dummies []*skipgraph.Node
		for x := range d.g.All() {
			if x.IsDummy() {
				dummies = append(dummies, x)
			}
		}
		for _, x := range dummies {
			if d.dummyRemovable(x) {
				extRefs = d.removeDummy(x, extRefs)
				swept++
			}
		}
		removed += swept
		if swept == 0 {
			break
		}
	}
	d.repairInserted += inserted
	d.repairRemoved += removed
	// A distinctness extension during GC creates new list memberships that
	// can carry fresh a-balance violations; chase them scoped.
	if len(extRefs) > 0 {
		ins, rem := d.RepairBalanceIn(extRefs, nil)
		inserted += ins
		removed += rem
	}
	return inserted, removed
}

// RepairBalanceIn restores the a-balance property over the given dirty
// lists only, iterating to a fixed point: every repair action (dummy
// insertion or removal) adds the lists it touched to the dirty set, so
// knock-on violations at lower levels are chased without ever rescanning
// untouched parts of the graph. Lists outside the dirty set cannot have
// new violations by construction — the local join, leave, and repair
// operations report every list whose membership or bits they changed.
// Validate (global) remains the correctness oracle for that claim.
// dummies, in key order, names dummies whose runs changed without a ref
// covering them — a transformation's, whose rebuilt lists are balanced as
// built and so need no scan, only the garbage collection. Neither argument
// may alias the repair's own scratch buffers (d.pending, d.pendingDummies
// and anything the caller built itself are fine).
func (d *DSG) RepairBalanceIn(refs []skipgraph.ListRef, dummies []*skipgraph.Node) (inserted, removed int) {
	sc := &d.scratch.repair
	// Each pass scans only the frontier — the refs new since the previous
	// pass. That loses nothing: a list can only gain a violation through a
	// repair action, and every action self-reports its lists in `touched`
	// (a run still over-long after a break is adjacent to the inserted
	// dummy, whose windowed refs cover it). The accumulated set is kept for
	// the garbage-collection phase below: every pass appends what it touched
	// to sc.touched, whose newest stretch is the next pass's frontier, so
	// the round's dirty set is its first frontier plus all of sc.touched.
	frontier := refs
	for round := 0; len(frontier) > 0 || len(dummies) > 0; round++ {
		sc.touched = recycle(sc.touched)
		first := frontier
		if round > 0 {
			// This frontier lives in sc.ext, which the round reuses.
			sc.touched = append(sc.touched, frontier...)
			first, frontier = nil, sc.touched
		}
		for pass := 0; pass < 4*d.g.N()+16 && len(frontier) > 0; pass++ {
			var scanned, ins, rem int
			sc.viols, scanned = d.g.AppendBalanceViolationsIn(recycle(sc.viols), d.cfg.A, frontier)
			d.repairScan += scanned
			mark := len(sc.touched)
			ins, rem, sc.touched = d.repairViolations(sc.viols, sc.touched)
			inserted += ins
			removed += rem
			frontier = sc.touched[mark:]
		}
		// Scoped garbage collection: only a dummy inside a dirty list can have
		// had the run it was breaking shortened, so only those can have become
		// redundant since the last repair. After the first sweep, only the
		// lists around a removal can hold newly redundant dummies; each sweep
		// appends those to sc.gc and the next sweep reads that stretch.
		sc.ext = recycle(sc.ext)
		sc.gc = recycle(sc.gc)
		for sweep, mark := 0, 0; ; sweep++ {
			// Only these dummies can have become redundant: removability
			// depends solely on the runs around a dummy, and those changed
			// only inside the dirty windows. Key order is the order the
			// global sweep visits them in.
			var scanned int
			if sweep == 0 {
				sc.dummies, scanned = d.g.AppendDummiesIn(recycle(sc.dummies), dummies, first, sc.touched)
			} else {
				sc.dummies, scanned = d.g.AppendDummiesIn(recycle(sc.dummies), nil, sc.gc[mark:])
			}
			d.repairScan += scanned
			mark = len(sc.gc)
			for _, x := range sc.dummies {
				if d.g.Contains(x) && d.dummyRemovable(x) {
					sc.gc = skipgraph.AppendExListRefs(sc.gc, x)
					extAt := len(sc.gc)
					sc.gc = d.removeDummy(x, sc.gc)
					sc.ext = append(sc.ext, sc.gc[extAt:]...)
					removed++
				}
			}
			if len(sc.gc) == mark {
				break // the sweep removed nothing
			}
		}
		// A removal that forced a distinctness extension created new list
		// memberships; those can carry fresh a-balance violations, so they
		// become the next round's frontier.
		frontier, dummies = sc.ext, nil
	}
	sc.release()
	d.repairInserted += inserted
	d.repairRemoved += removed
	return inserted, removed
}

// repairViolations repairs one violation snapshot (shorten a run by
// dropping a redundant in-run dummy, else break it with a fresh dummy
// chain-breaker) and returns the action counts plus touched extended by a
// ListRef for every list the actions touched — the knock-on dirty set a
// scoped repair must re-examine.
func (d *DSG) repairViolations(viols []skipgraph.BalanceViolation, touched []skipgraph.ListRef) (inserted, removed int, _ []skipgraph.ListRef) {
	a := d.cfg.A
	sc := &d.scratch.repair
	for _, viol := range viols {
		start := viol.Start
		if !d.g.Contains(start) || !start.HasBit(viol.Level+1) || start.Bit(viol.Level+1) != viol.Bit {
			continue
		}
		// Recompute the run from the live links — an earlier repair in this
		// pass may have shortened or shifted the snapshot's run — without
		// ever materializing the containing list (level-0 lists span the
		// whole graph).
		run := append(recycle(sc.run), start)
		for y := start.Next(viol.Level); y != nil && y.HasBit(viol.Level+1) && y.Bit(viol.Level+1) == viol.Bit; y = y.Next(viol.Level) {
			run = append(run, y)
		}
		sc.run = run
		if len(run) <= a {
			continue
		}
		// Prefer shortening the run by dropping a redundant in-run dummy —
		// one whose removal leaves every list it touches balanced. That
		// keeps the dummy population bounded instead of growing a breaker
		// for every leak.
		dropped := false
		for _, y := range run {
			if y.IsDummy() && d.dummyRemovable(y) {
				touched = skipgraph.AppendExListRefs(touched, y)
				touched = d.removeDummy(y, touched)
				removed++
				dropped = true
				break
			}
		}
		if dropped {
			continue
		}
		// Break the run after its a-th member.
		dm := d.breakRun(run[a-1], run[a], viol)
		inserted++
		for l := 0; l <= dm.MaxLinkedLevel(); l++ {
			touched = append(touched, skipgraph.ListRef{Node: dm, Level: int32(l)})
		}
	}
	return inserted, removed, touched
}

// breakRun splices a fresh dummy chain-breaker between the adjacent run
// members left and right: it copies left's prefix through the violation's
// level and takes the opposite bit above it. When the two sit on adjacent
// minor slots it first respreads the dummies under left's primary (keys,
// not links: the graph is the same graph), which opens every gap there.
func (d *DSG) breakRun(left, right *skipgraph.Node, viol skipgraph.BalanceViolation) *skipgraph.Node {
	key, ok := d.staticFreeKey(left.Key(), right.Key())
	if !ok {
		d.g.RespreadDummies(left)
		if key, ok = d.staticFreeKey(left.Key(), right.Key()); !ok {
			panic(fmt.Sprintf("core: no key between %v and %v after a respread", left.Key(), right.Key()))
		}
	}
	id := d.nextDummyID
	d.nextDummyID++
	dm := newDummy(key, id, viol.Level+1)
	for i := 1; i <= viol.Level; i++ {
		dm.SetBit(i, left.Bit(i))
	}
	dm.SetBit(viol.Level+1, 1-viol.Bit)
	d.g.SpliceIn(dm)
	d.dummyCount++
	return dm
}

// RepairStats returns the cumulative number of dummy insertions and
// removals RepairBalance has performed over the DSG's lifetime.
func (d *DSG) RepairStats() (inserted, removed int) {
	return d.repairInserted, d.repairRemoved
}

// LocalityWork returns the cumulative deterministic work counters of the
// scoped membership paths: nodes examined while splicing local joins, and
// nodes scanned by scoped balance repairs. Experiment E16 reports their
// per-event deltas to demonstrate sublinear per-join cost.
func (d *DSG) LocalityWork() (joinScan, repairScan int) {
	return d.joinScan, d.repairScan
}
