package core

import (
	"lsasg/internal/skipgraph"
)

// recordOldGroupSplits fills ctx.splits with, for every member, the old
// levels d ≥ alpha at which its pre-transformation group (nodes sharing the
// old group-id and the old level-d list) no longer shares a level-d list
// afterwards. These are the split events rule T5 and the group-base rules
// (Appendix C) refer to ("a group g at level d in S_t splits ... in
// S_{t+1}").
//
// The old lists are recovered by partitioning the members on their old
// membership bits, level by level from l_alpha down the old tree; within
// one old list the members group by old group-id. Walking the old tree top
// down records each member's events in ascending level order, the order the
// base and T5 rules (which are order-sensitive) apply them in. The events
// are a function of the snapshot and the new vectors alone, neither of which
// a rule touches, so the old tree is walked once — by the base rules, which
// run first — and rule T5 replays the record.
func recordOldGroupSplits(ctx *transformCtx) {
	ctx.part = ctx.part[:0]
	for o := 0; o < ctx.m; o++ {
		ctx.part = append(ctx.part, o)
	}
	ctx.splits = ctx.splits[:0]
	oldListSplits(ctx, ctx.part, ctx.alpha)
}

// oldListSplits handles one old level-lvl list (members in key order) and
// recurses into its two old sublists.
func oldListSplits(ctx *transformCtx, list []int, lvl int) {
	if len(list) == 0 {
		return
	}
	// Group by old group-id. A group of ≥ 2 split at this level iff its
	// members no longer share a level-lvl list (new membership prefixes
	// diverge); sharing is transitive, so comparing against the group's
	// first member suffices.
	ctx.groups.reset(len(list))
	agg := ctx.agg[:0]
	for _, o := range list {
		e := &ctx.ents[o]
		gid := int64(-1)
		if oldG := ctx.oldG(o); lvl < len(oldG) {
			gid = oldG[lvl]
		}
		gi := ctx.groups.index(gid)
		if gi == len(agg) {
			agg = append(agg, groupAgg{first: o})
		}
		e.gid = int32(gi)
		agg[gi].size++
		if !agg[gi].split && skipgraph.CommonPrefixLen(ctx.ents[agg[gi].first].n, e.n) < lvl {
			agg[gi].split = true
		}
	}
	ctx.agg = agg
	for _, o := range list {
		if g := agg[ctx.ents[o].gid]; g.size >= 2 && g.split {
			ctx.splits = append(ctx.splits, splitEvent{o: int32(o), level: int32(lvl)})
		}
	}
	// Partition on the old bit for lvl+1 (stable, in place); members whose
	// old vector ends here were singleton above and drop out.
	zeros, ones := 0, ctx.partTmp[:0]
	for _, o := range list {
		bits := ctx.oldBitsOf(o)
		switch {
		case len(bits) <= lvl:
		case bits[lvl] == 0:
			list[zeros] = o
			zeros++
		default:
			ones = append(ones, o)
		}
	}
	end := zeros + copy(list[zeros:], ones)
	ctx.partTmp = ones[:0]
	oldListSplits(ctx, list[:zeros], lvl+1)
	oldListSplits(ctx, list[zeros:end], lvl+1)
}

// applyGroupBaseRules updates group-bases after the structural
// transformation (Appendix C): a node whose group split at its base level
// drops its base by one; a node based at alpha whose lowest split happened
// well above alpha rebases just below that split. (Merge-driven base
// updates were already applied in mergeGroups.)
func (d *DSG) applyGroupBaseRules(ctx *transformCtx) {
	recordOldGroupSplits(ctx)
	for _, ev := range ctx.splits {
		e, dl := &ctx.ents[ev.o], int(ev.level)
		if e.lowestSplit < 0 {
			e.lowestSplit = ev.level // events ascend
		}
		if e.s.B == dl {
			e.s.B = dl - 1
		}
	}
	for o := range ctx.ents[:ctx.m] {
		e := &ctx.ents[o]
		if e.lowestSplit < 0 {
			continue
		}
		sx := e.s
		if sx.B == ctx.alpha && int(e.lowestSplit) > ctx.alpha+1 {
			sx.B = int(e.lowestSplit) - 1
		}
		if sx.B < 0 {
			sx.B = 0
		}
	}
	// The communicating pair rebases to the lower of the two old bases
	// (their groups below alpha are now shared, Appendix C), clamped by
	// d': for a first-time pair the merged group {u, v} tops out at the
	// direct-link level, which is then the highest level of its biggest
	// group.
	minB := min(ctx.oldBu, ctx.oldBv, skipgraph.CommonPrefixLen(ctx.u, ctx.v))
	ctx.ents[ctx.ui].s.B = minB
	ctx.ents[ctx.vi].s.B = minB
}

// applyTimestampRules executes the timestamp update of §IV-E. The order is
// the paper's T1–T6 with one documented clarification (DESIGN.md §3): a
// "group transport" pass implements the repositioning of unchanged groups
// that Fig 4(c) displays but that rules T2/T3 alone leave under-specified.
func (d *DSG) applyTimestampRules(ctx *transformCtx) {
	transportGroupTimes(ctx)
	ruleT1(ctx)
	ruleT2(ctx)
	ruleT3(ctx)
	ruleT4(ctx)
	ruleT5(ctx)
	ruleT6(ctx)
}

// transportGroupTimes moves each surviving group's timestamp to the level
// the group now occupies. For every new list S at a level d > alpha that
// does not contain the communicating pair, the members' common ancestor in
// the old topology sat at level e = their longest common old membership
// prefix; each member's old level-e timestamp becomes its level-d
// timestamp. Singletons carry the timestamp of their old singleton level.
// This reproduces Fig 4(c) exactly: the displaced group {B,G,D} keeps its
// merge time 4 one level up, {B,G} keeps 6, intact subtrees keep their old
// values verbatim. The new lists are the ones the splits formed and left
// in ctx.spans.
func transportGroupTimes(ctx *transformCtx) {
	for _, sp := range ctx.spans[1:] { // spans[0] is l_alpha itself
		list := ctx.lists[sp.off : sp.off+sp.n]
		if hasU, hasV := ctx.contains(list); hasU || hasV {
			continue // the pair's lists are stamped by T1/T2
		}
		// e = the set's deepest common old list: the common prefix of a
		// string set is min over LCPs against any one member.
		first, e := -1, 0
		for _, o := range list {
			switch {
			case !ctx.isReal(o):
			case first < 0:
				first, e = o, int(ctx.ents[o].bLen)
			default:
				e = min(e, ctx.oldCommonPrefix(first, o))
			}
		}
		for _, o := range list {
			if ctx.isReal(o) {
				ctx.ents[o].s.setTimestamp(sp.level, at64(ctx.oldT(o), e))
			}
		}
	}
}

// ruleT1 stamps the communicating pair: time t at the size-2 list level d'
// and the singleton level above it; below, each level takes the split
// median that formed it (the merge time of that level's group), falling
// back to the pairwise max of the old timestamps.
func ruleT1(ctx *transformCtx) {
	t := ctx.t
	su, sv := ctx.ents[ctx.ui].s, ctx.ents[ctx.vi].s
	dPrime := skipgraph.CommonPrefixLen(ctx.u, ctx.v)
	su.setTimestamp(dPrime, t)
	su.setTimestamp(dPrime+1, t)
	sv.setTimestamp(dPrime, t)
	sv.setTimestamp(dPrime+1, t)
	minB := max(min(ctx.oldBu, ctx.oldBv), 0)
	oldU, oldV := ctx.oldT(ctx.ui), ctx.oldT(ctx.vi)
	for i := dPrime - 1; i >= minB; i-- {
		val := max(at64(oldU, i), at64(oldV, i))
		if i > ctx.alpha {
			// The level-i list around the pair was formed by the split of
			// the level-(i-1) list; its median is the group's merge time
			// (matches the paper's Fig 4 walk-through).
			for _, lm := range ctx.uMeds {
				if lm.level == i-1 && !lm.med.Inf && lm.med.V > 0 {
					val = lm.med.V
				}
			}
		}
		su.setTimestamp(i, val)
		sv.setTimestamp(i, val)
	}
}

// ruleT2 stamps every other node that remains in the pair's group: at each
// level d+1 where the node still holds u's group-id, its timestamp becomes
// its lowest old timestamp exceeding the median it received at level d, or
// that median itself. With the scripted medians of the paper's example this
// yields node E's S9 column exactly (T[1]=2, T[2]=5). The medians sit on
// the lists that computed them, so the rule goes list by list; a node's
// levels are independent of one another (each reads the snapshot and writes
// its own level), so the order does not matter.
func ruleT2(ctx *transformCtx) {
	uID := ctx.u.ID()
	for _, sp := range ctx.spans {
		if !sp.hasMed || sp.med.Inf {
			continue
		}
		dl, m := sp.level, sp.med.V
	members:
		for _, o := range ctx.lists[sp.off : sp.off+sp.n] {
			if !ctx.isReal(o) || o == ctx.ui || o == ctx.vi {
				continue
			}
			e := &ctx.ents[o]
			sx := e.s
			for l := ctx.alpha; l <= dl; l++ {
				if sx.group(l+1) != uID {
					continue members // left the pair's group at or below this level
				}
			}
			cPrime, oldT := newAssociationDepth(ctx, e.n), ctx.oldT(o)
			stamp := m
			for c := ctx.alpha; c < cPrime; c++ {
				if tc := at64(oldT, c); tc > m {
					stamp = tc
					break
				}
			}
			sx.setTimestamp(dl+1, stamp)
		}
	}
}

// newAssociationDepth returns c': the highest level at which x shares a
// list with the nearest communicating node after the transformation (the
// reading of the paper's "longest common postfix" under which its Fig 4
// values c'(E)=2, c'(G)=1 come out; DESIGN.md §3).
func newAssociationDepth(ctx *transformCtx, x *skipgraph.Node) int {
	return max(skipgraph.CommonPrefixLen(x, ctx.u), skipgraph.CommonPrefixLen(x, ctx.v))
}

// nearestCommunicating returns the ordinal of whichever of u, v was closer
// to member o in the old topology (longer old common prefix).
func nearestCommunicating(ctx *transformCtx, o int) int {
	if ctx.oldCommonPrefix(o, ctx.ui) >= ctx.oldCommonPrefix(o, ctx.vi) {
		return ctx.ui
	}
	return ctx.vi
}

// ruleT3 handles members of the pair's old groups whose association depth
// shrank: the timestamps across the vacated levels collapse to the old
// value at the deep end.
func ruleT3(ctx *transformCtx) {
	alpha := ctx.alpha
	oldGu, oldGv := ctx.oldGroup(ctx.ui, alpha), ctx.oldGroup(ctx.vi, alpha)
	for o := range ctx.ents[:ctx.m] {
		if o == ctx.ui || o == ctx.vi {
			continue
		}
		if g := ctx.oldGroup(o, alpha); g != oldGu && g != oldGv {
			continue
		}
		w := nearestCommunicating(ctx, o)
		cPrime := ctx.oldCommonPrefix(o, w)
		cDouble := skipgraph.CommonPrefixLen(ctx.ents[o].n, ctx.ents[w].n)
		if cPrime-1 <= cDouble+1 {
			continue
		}
		sx := ctx.ents[o].s
		val := at64(ctx.oldT(o), cPrime)
		for i := cPrime - 1; i >= cDouble+1; i-- {
			sx.setTimestamp(i, val)
		}
	}
}

// ruleT4 fills timestamp gaps for nodes that initialized or received
// Glower: zero levels between the group-base and the lowest non-zero
// timestamp adopt that timestamp (DESIGN.md §3 reading).
func ruleT4(ctx *transformCtx) {
	for o := range ctx.ents[:ctx.m] {
		if ctx.ents[o].glower {
			fillBelowLowestTimestamp(ctx.ents[o].s)
		}
	}
	for _, sx := range ctx.glowerOut {
		fillBelowLowestTimestamp(sx)
	}
}

func fillBelowLowestTimestamp(sx *nodeState) {
	lowNZ := -1
	for i := 0; i < len(sx.T); i++ {
		if sx.T[i] != 0 {
			lowNZ = i
			break
		}
	}
	for i := sx.B; i < lowNZ; i++ {
		sx.setTimestamp(i, sx.T[lowNZ])
	}
}

// ruleT5 backfills the level below a split: a member of an old group that
// split at level dl whose level-(dl-1) timestamp is still zero copies the
// level-dl timestamp down. The events are the ones applyGroupBaseRules
// recorded.
func ruleT5(ctx *transformCtx) {
	for _, ev := range ctx.splits {
		sx, dl := ctx.ents[ev.o].s, int(ev.level)
		if dl >= 1 && sx.timestamp(dl-1) == 0 && sx.timestamp(dl) != 0 {
			sx.setTimestamp(dl-1, sx.timestamp(dl))
		}
	}
}

// ruleT6 zeroes every timestamp below the group-base.
func ruleT6(ctx *transformCtx) {
	for o := range ctx.ents[:ctx.m] {
		sx := ctx.ents[o].s
		for i := 0; i < sx.B && i < len(sx.T); i++ {
			sx.T[i] = 0
		}
	}
}

func at64(xs []int64, i int) int64 {
	if i < 0 || i >= len(xs) {
		return 0
	}
	return xs[i]
}
