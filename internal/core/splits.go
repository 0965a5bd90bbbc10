package core

import (
	"fmt"
	"slices"

	"lsasg/internal/amf"
)

// runSplits performs the recursive, level-parallel splitting of l_alpha
// (§IV-C): every list of size ≥ 2 computes an approximate median priority
// and partitions into the 0- and 1-subgraphs at the next level, until all
// involved real nodes are singleton. Lists at the same level run in
// parallel, so a level's round cost is the maximum over its lists.
func (d *DSG) runSplits(ctx *transformCtx) {
	// ctx.spans starts out holding l_alpha alone. Each level's lists sit
	// contiguously in spans; splitting them appends the next level's behind.
	for lo, hi := 0, len(ctx.spans); lo < hi; lo, hi = hi, len(ctx.spans) {
		levelRounds := 0
		for i := lo; i < hi; i++ {
			if ctx.spans[i].split {
				levelRounds = max(levelRounds, d.splitList(ctx, i))
			}
		}
		ctx.rounds += levelRounds
	}
}

// splitList splits the list ctx.spans[at], assigning membership bits for the
// next level to its real members, appends the two child lists (key order)
// to ctx.spans, and returns the round cost. Dummies in the list do not
// participate (§IV-F): they stay singleton above this level and only serve
// to break chains; freshly inserted dummies join the child sibling list.
func (d *DSG) splitList(ctx *transformCtx, at int) (rounds int) {
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
	if len(real) < 2 {
		return 0
	}

	var mres MedianResult
	haveMedian := false

	pairOnly := len(real) == 2 && ((real[0] == ctx.ui && real[1] == ctx.vi) || (real[0] == ctx.vi && real[1] == ctx.ui))
	switch {
	case pairOnly && len(L) == 2:
		// The pair reached its size-2 list (level d' of rule T1); one more
		// split makes both singleton. The left node takes the 0-subgraph.
		ctx.ents[real[0]].inZero = true
		ctx.ents[real[0]].s.setDominating(bitLevel, true)
		rounds = 1
	case pairOnly:
		// Only dummies accompany the pair; both move to the 0-subgraph and
		// the dummies (which take no further bits) stay behind, so the next
		// level holds the pair alone.
		ctx.ents[real[0]].inZero = true
		ctx.ents[real[1]].inZero = true
		rounds = 1
	default:
		values := ctx.values[:0]
		for _, o := range real {
			values = append(values, ctx.ents[o].pri)
		}
		ctx.values = values
		mres = d.finder.FindMedian(values)
		haveMedian = true
		rounds += mres.Rounds
		M := mres.Median
		ctx.spans[at].med, ctx.spans[at].hasMed = M, true
		if hasU, _ := ctx.contains(real); hasU {
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
	}

	if allSameSide(ctx, real) && !pairOnly {
		// Degenerate tie (e.g. an old group with identical timestamps):
		// the paper's comparison split cannot make progress, so fall back
		// to a positional split that keeps the communicating pair together
		// in the 0-subgraph (DESIGN.md §3.1).
		fallbackSplit(ctx, real)
	}
	for _, o := range real {
		if e := &ctx.ents[o]; e.inZero {
			e.n.SetBit(bitLevel, 0)
		} else {
			e.n.SetBit(bitLevel, 1)
		}
	}

	// Linear neighbour search at the new level costs at most `a` rounds
	// thanks to the a-balance property (§IV-C).
	rounds += d.cfg.A

	// a-balance maintenance: break runs longer than `a` with dummies
	// placed in the sibling subgraph (§IV-F). Existing dummies already act
	// as chain boundaries.
	withDummies, added := d.repairBalance(ctx, L, dl)
	if added > 0 {
		rounds += d.cfg.A // chain detection handshake
	}

	// Child lists at bitLevel: real members by their new bit plus freshly
	// inserted dummies (which carry a bit for bitLevel); old dummies stop
	// at level dl.
	var children [2]listSpan
	for side := range children {
		child := listSpan{off: len(ctx.lists), level: bitLevel}
		realCount := 0
		for _, o := range withDummies {
			if x := ctx.ents[o].n; x.HasBit(bitLevel) && int(x.Bit(bitLevel)) == side {
				ctx.lists = append(ctx.lists, o)
				if ctx.isReal(o) {
					realCount++
				}
			}
		}
		child.n = len(ctx.lists) - child.off
		child.split = realCount >= 2
		children[side] = child
	}

	rounds += d.reassignGroups(ctx, real, dl, haveMedian, mres)
	for _, child := range children {
		recomputeP4(ctx, ctx.lists[child.off:child.off+child.n], bitLevel)
		if child.n > 0 {
			ctx.spans = append(ctx.spans, child)
		}
	}
	return rounds
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
			// any positive split); fall back to a positional halving of gs
			// to preserve progress and the height bound.
			for i, o := range gs {
				ctx.ents[o].inZero = i < (len(gs)+1)/2
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
	if hasU, hasV := ctx.contains(side); hasU && hasV {
		return // the pair's list keeps P1/P2 priorities
	}
	for _, o := range side {
		if ctx.isReal(o) {
			e := &ctx.ents[o]
			e.pri = amf.Finite(-e.s.group(bitLevel)*ctx.t + e.s.timestamp(bitLevel+1))
		}
	}
}
