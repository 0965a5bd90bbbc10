package core

import (
	"fmt"
	"slices"

	"lsasg/internal/amf"
)

// runSplits rebuilds the region above alpha in three phases.
//
//  1. Split (§IV-C): level by level, every list of ≥ 2 real members computes
//     an approximate median priority and assigns its real members their
//     next membership bit, until every real member is singleton — except
//     the list that holds u and v alone, which waits for phase 3. Only bits
//     are assigned here; no dummy exists yet.
//  2. Balance (§IV-F): the lists are revisited deepest first and each is
//     made a-balanced once, over its complete membership (balanceList).
//  3. Pair: the pair's list splits last (splitPair), because how it splits
//     depends on whether phase 2 left a breaker in it.
//
// The order of 1 and 2 is the point. A breaker created for a level-d' list
// carries that list's whole prefix, so it is a member — on its left
// neighbour's side — of every ancestor list at d < d'. Balancing a list at
// the moment it splits, before its descendants have created their breakers,
// therefore balances a list that is still going to grow: each deep breaker
// can lengthen a run, and demand one more breaker, per ancestor level, and
// a later repair has to rescan what the transformation has just built.
// Deepest first, a list is balanced when everything below it is final, and
// the breakers it adds reach its children only as bit-less boundaries,
// which can shorten runs there but never lengthen one.
//
// Lists at the same level work in parallel, so a level's round cost is the
// maximum over its lists.
func (d *DSG) runSplits(ctx *transformCtx) {
	// ctx.spans starts out holding l_alpha alone. Each level's lists sit
	// contiguously in spans; splitting them appends the next level's behind,
	// so children always follow their parent.
	for lo, hi := 0, len(ctx.spans); lo < hi; lo, hi = hi, len(ctx.spans) {
		for i := lo; i < hi; i++ {
			if ctx.spans[i].split {
				d.splitList(ctx, i)
			}
		}
	}
	// Deepest first is last first. A list reads its sublists' memberships
	// once, so two buffers do: the level being assembled and the one below.
	for i, level := len(ctx.spans)-1, -1; i >= 0; i-- {
		if l := ctx.spans[i].level; l != level {
			level = l
			ctx.full, ctx.below = ctx.below[:0], ctx.full
		}
		d.balanceList(ctx, i)
		ctx.charge(ctx.spans[i].level, ctx.spans[i].rounds)
	}
	d.splitPair(ctx)
	for _, c := range ctx.levelCost {
		ctx.rounds += c
	}
}

// splitList splits the list ctx.spans[at]: it assigns the membership bit
// for the next level to each of its real members, appends the two child
// lists (real members only, key order) to ctx.spans, and records the round
// cost on the span. Dummies do not participate (§IV-F): the kept ones in
// l_alpha stay singleton above it, and the breakers of this transformation
// do not exist yet. The pair's own list is only noted, not split.
func (d *DSG) splitList(ctx *transformCtx, at int) {
	work := ctx.spans[at]
	L, dl := ctx.lists[work.off:work.off+work.n], work.level
	bitLevel := dl + 1

	real := ctx.real[:0]
	for _, o := range L {
		if ctx.isReal(o) {
			real = append(real, o)
			ctx.ents[o].inZero = false
		}
	}
	ctx.real = real
	if len(real) == 2 && (real[0] == ctx.ui || real[0] == ctx.vi) && (real[1] == ctx.ui || real[1] == ctx.vi) {
		ctx.pairSpan = at
		ctx.pairGuests = len(L) - 2
		return
	}

	values := ctx.values[:0]
	for _, o := range real {
		values = append(values, ctx.ents[o].pri)
	}
	ctx.values = values
	mres := d.finder.FindMedian(values)
	rounds := mres.Rounds
	M := mres.Median
	ctx.spans[at].med, ctx.spans[at].hasMed = M, true
	if work.hasU {
		ctx.uMeds = append(ctx.uMeds, levelMedian{dl, M})
	}
	if M.Inf || M.V >= 0 {
		// Case 1: M is positive. Split by P(x) ≥ M; this divides the
		// merged communicating group. Nodes moving to the 0-subgraph
		// record the boundary with D = true at the formed level; the
		// 1-subgraph's old flags survive so that nested boundaries from
		// earlier positive splits stay readable (DESIGN.md §3, and the
		// paper's Fig 4 walk-through requires exactly this).
		for _, o := range real {
			e := &ctx.ents[o]
			e.inZero = e.pri.GreaterEq(M)
			if e.inZero {
				e.s.setDominating(bitLevel, true)
			}
		}
	} else {
		rounds += d.splitNegative(ctx, real, dl, M, mres)
	}
	if allSameSide(ctx, real) {
		// Degenerate tie (e.g. an old group with identical timestamps):
		// the paper's comparison split cannot make progress, so fall back
		// to a positional split that keeps the communicating pair together
		// in the 0-subgraph (DESIGN.md §3.1).
		fallbackSplit(ctx, real)
	}

	// Linear neighbour search at the new level costs at most `a` rounds
	// thanks to the a-balance property (§IV-C).
	rounds += d.cfg.A
	rounds += d.reassignGroups(ctx, real, dl, true, mres)
	ctx.spans[at].rounds = rounds

	// Child lists at bitLevel: the real members by their new bit.
	for side := range 2 {
		child := listSpan{off: len(ctx.lists), level: bitLevel}
		for _, o := range real {
			if ctx.ents[o].inZero == (side == 0) {
				ctx.lists = append(ctx.lists, o)
				child.hasU = child.hasU || o == ctx.ui
				child.hasV = child.hasV || o == ctx.vi
			}
		}
		child.n = len(ctx.lists) - child.off
		if child.n == 0 {
			continue
		}
		child.split = child.n >= 2
		for _, o := range ctx.lists[child.off:] {
			ctx.setBit(o, bitLevel, byte(side))
		}
		if !child.hasU || !child.hasV { // the pair's list keeps P1/P2 priorities
			recomputeP4(ctx, ctx.lists[child.off:], bitLevel)
		}
		ctx.spans[at].kids[side] = len(ctx.spans)
		ctx.spans = append(ctx.spans, child)
	}
}

// splitPair splits the list that holds u and v alone among real nodes, as
// the last step: by now the balance pass has decided which dummies share
// it. Alone in a size-2 list (level d' of rule T1), one split makes both
// singleton; the left node takes the 0-subgraph. With dummies for company
// the pair first moves to the 0-subgraph together — the dummies take no
// further bits and stay behind — so the next level holds the pair alone,
// which keeps u and v directly linked. A run of two never needs a breaker
// (a ≥ 2), so these lists need no balance pass of their own.
func (d *DSG) splitPair(ctx *transformCtx) {
	lo, hi := min(ctx.ui, ctx.vi), max(ctx.ui, ctx.vi)
	ctx.real = append(ctx.real[:0], lo, hi)
	left, right := &ctx.ents[lo], &ctx.ents[hi]
	alone := ctx.pairGuests == 0
	for level := ctx.spans[ctx.pairSpan].level; ; level++ {
		bitLevel := level + 1
		left.inZero, right.inZero = true, !alone
		ctx.setBit(lo, bitLevel, 0)
		if alone {
			left.s.setDominating(bitLevel, true)
			ctx.setBit(hi, bitLevel, 1)
		} else {
			ctx.setBit(hi, bitLevel, 0)
		}
		ctx.charge(level, 1+d.cfg.A+d.reassignGroups(ctx, ctx.real, level, false, MedianResult{}))
		if alone {
			return
		}
		alone = true
	}
}

func allSameSide(ctx *transformCtx, real []int) bool {
	zeros := 0
	for _, o := range real {
		if ctx.ents[o].inZero {
			zeros++
		}
	}
	return zeros == 0 || zeros == len(real)
}

// splitNegative handles Case 2 of §IV-C: the approximate median is
// negative, so a non-communicating group gs may straddle it (equation 2).
// The |gs| thresholds decide whether gs splits along old D flags, moves
// wholesale to the lighter side, or becomes the whole 1-subgraph.
func (d *DSG) splitNegative(ctx *transformCtx, real []int, dl int, M amf.Value, mres MedianResult) (rounds int) {
	t := ctx.t
	gs := ctx.gs[:0]
	var gsID int64
	for _, o := range real {
		e := &ctx.ents[o]
		e.inGs = false
		if e.pri.Inf || e.pri.V >= 0 {
			continue
		}
		g := e.s.group(dl)
		lo := -g * t
		if lo <= M.V && M.V < lo+t {
			if len(gs) > 0 && g != gsID {
				// Distinct groups occupy disjoint bands, so two straddling
				// groups would indicate a priority-rule bug.
				panic(fmt.Sprintf("core: two straddling groups %d and %d", gsID, g))
			}
			gsID = g
			gs = append(gs, o)
			e.inGs = true
		}
	}
	ctx.gs = gs
	if len(gs) == 0 {
		for _, o := range real {
			e := &ctx.ents[o]
			e.inZero = e.pri.GreaterEq(M)
		}
		return 0
	}
	rounds += mres.CountRounds // distributed count of |gs|
	switch {
	case 3*len(gs) > 2*len(real):
		// gs is too big: split it along the is-dominating-group flags,
		// which reproduce its most recent positive-median split boundary.
		trues := 0
		for _, o := range gs {
			if ctx.ents[o].s.dominating(dl) {
				trues++
			}
		}
		if trues == 0 || trues == len(gs) {
			// No recorded boundary (can happen for groups formed before
			// any positive split): halve gs positionally to preserve
			// progress and the height bound. gs is in key order and the
			// halves interleave, so neither is a key-contiguous run that
			// the balance pass would have to break (DESIGN.md §3.1).
			for i, o := range gs {
				ctx.ents[o].inZero = i%2 == 0
			}
		} else {
			for _, o := range gs {
				ctx.ents[o].inZero = !ctx.ents[o].s.dominating(dl)
			}
		}
		for _, o := range real {
			if !ctx.ents[o].inGs {
				ctx.ents[o].inZero = true
			}
		}
	case 3*len(gs) < len(real):
		// gs is small: everyone else splits around M; gs moves wholesale
		// to the lighter side.
		low, high := 0, 0
		for _, o := range real {
			if ctx.ents[o].pri.GreaterEq(M) {
				high++
			} else {
				low++
			}
		}
		rounds += 2 * mres.CountRounds // distributed counts of L_low, L_high
		// Guard: if every non-gs node lies on one side, force gs to the
		// other so both subgraphs are non-empty.
		nonGsZero, nonGsOne := 0, 0
		for _, o := range real {
			e := &ctx.ents[o]
			if e.inGs {
				continue
			}
			e.inZero = e.pri.GreaterEq(M)
			if e.inZero {
				nonGsZero++
			} else {
				nonGsOne++
			}
		}
		gsToZero := high < low
		if nonGsZero == 0 {
			gsToZero = true
		} else if nonGsOne == 0 {
			gsToZero = false
		}
		for _, o := range gs {
			ctx.ents[o].inZero = gsToZero
		}
	default:
		// 1/3 ≤ |gs|/|L| ≤ 2/3: gs becomes the whole 1-subgraph.
		for _, o := range real {
			ctx.ents[o].inZero = !ctx.ents[o].inGs
		}
	}
	return rounds
}

// fallbackSplit is the deterministic tie-breaker for degenerate lists: the
// communicating pair first, then descending priority, then key order; the
// first half goes to the 0-subgraph.
func fallbackSplit(ctx *transformCtx, real []int) {
	// real is in key order and the sort is stable, so ties keep key order.
	ctx.ordered = append(ctx.ordered[:0], real...)
	slices.SortStableFunc(ctx.ordered, func(a, b int) int {
		return ctx.ents[b].pri.Cmp(ctx.ents[a].pri)
	})
	half := (len(ctx.ordered) + 1) / 2
	for i, o := range ctx.ordered {
		ctx.ents[o].inZero = i < half
	}
}

// reassignGroups applies Algorithm 1 step 8 over the real members: the list
// holding u and v adopts u's identifier; a group split by this step gives
// its 1-subgraph portion the identifier of that portion's left-most member
// (broadcast via the AMF skip list); intact groups carry their identifier
// up a level.
func (d *DSG) reassignGroups(ctx *transformCtx, real []int, dl int, haveMedian bool, mres MedianResult) (rounds int) {
	bitLevel := dl + 1
	uID := ctx.u.ID()

	// Count each level-dl group's members per side; a group with members
	// on both sides is split by this step.
	ctx.groups.reset(len(real))
	agg := ctx.agg[:0]
	zeroHasU, zeroHasV := false, false
	for _, o := range real {
		e := &ctx.ents[o]
		gi := ctx.groups.index(e.s.group(dl))
		if gi == len(agg) {
			agg = append(agg, groupAgg{})
		}
		e.gid = int32(gi)
		if e.inZero {
			agg[gi].zeros++
			zeroHasU = zeroHasU || o == ctx.ui
			zeroHasV = zeroHasV || o == ctx.vi
		} else {
			agg[gi].ones++
		}
	}
	ctx.agg = agg
	zeroHasUV := zeroHasU && zeroHasV

	anySplit := false
	for _, o := range real {
		e := &ctx.ents[o]
		g := &agg[e.gid]
		anySplit = anySplit || (g.zeros > 0 && g.ones > 0)
		switch {
		case e.inZero && zeroHasUV:
			e.s.setGroup(bitLevel, uID)
		case e.inZero:
			e.s.setGroup(bitLevel, e.s.group(dl))
		case g.zeros > 0:
			// 1-subgraph portions of split groups take their left-most
			// member's id (first in key order).
			if !g.hasNewID {
				g.newID, g.hasNewID = e.n.ID(), true
			}
			e.s.setGroup(bitLevel, g.newID)
		default:
			e.s.setGroup(bitLevel, e.s.group(dl))
		}
	}
	if anySplit {
		if haveMedian {
			rounds += mres.BroadcastRounds // propagate the new group-id
		} else {
			rounds++
		}
	}
	return rounds
}

// recomputeP4 applies priority rule P4: real members of a freshly formed
// list that does not contain the communicating pair take the negative band
// priority of their level-(bitLevel) group.
func recomputeP4(ctx *transformCtx, side []int, bitLevel int) {
	for _, o := range side {
		if ctx.isReal(o) {
			e := &ctx.ents[o]
			e.pri = amf.Finite(-e.s.group(bitLevel)*ctx.t + e.s.timestamp(bitLevel+1))
		}
	}
}
