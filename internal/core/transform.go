package core

import (
	"cmp"
	"slices"

	"lsasg/internal/amf"
	"lsasg/internal/skipgraph"
)

// transform runs the full DSG topology transformation for request (u, v)
// at time t and returns the result fields it is responsible for. It leaves
// what it dirtied without rebuilding in d.pending / d.pendingDummies; AdjustAccess,
// its one caller, repairs exactly that before anyone sees the graph.
func (d *DSG) transform(u, v *skipgraph.Node, t int64) AdjustResult {
	ctx := &d.scratch.transform
	ctx.reset(u, v, t)
	defer ctx.release()
	alpha := ctx.alpha
	res := AdjustResult{Time: t, Alpha: alpha}

	// A crashed member of l_alpha cannot take part in the transformation —
	// the notification broadcast would be its first contact, so detect and
	// repair it now, exactly like a route-time detection. Each repair
	// removes one dead node (it may insert dummies, never dead nodes), so
	// the rescan loop terminates. The walk that finds no corpse is also the
	// one that collects l_alpha for the phases below.
	for {
		ctx.lalpha = recycle(ctx.lalpha)
		var deadMember *skipgraph.Node
		for x := u.ListHead(alpha); x != nil; x = x.Next(alpha) {
			if !x.IsDummy() && x.Dead() {
				deadMember = x
				break
			}
			ctx.lalpha = append(ctx.lalpha, x)
		}
		if deadMember == nil {
			break
		}
		d.crashDetectCount++
		d.repairCrashed(deadMember)
	}

	// Dummy nodes destroy themselves upon receiving the transformation
	// notification (§IV-F): they link their neighbours and vanish. One
	// refinement over the paper's wording: a dummy placed exactly at level
	// alpha breaks a chain at level alpha-1, which this transformation
	// will not rebuild — destroying it would leak an a-balance violation
	// below the transformed region, so it stays (it still participates in
	// l_alpha's split as a chain boundary). A destroyed dummy may have been
	// breaking chains below alpha, so its ex-lists there join the dirty set;
	// its lists from alpha up are about to be rebuilt.
	// Survivors get their ordinals here — real members in key order, the
	// kept dummies after them — and form the first list the splits work on:
	// l_alpha in key order, the kept dummies in it as chain boundaries.
	for _, x := range ctx.lalpha {
		if !x.IsDummy() {
			ctx.m++
		} else if x.BitsLen() <= alpha {
			ctx.kept++
		}
	}
	res.LAlpha, res.LAlphaDummies = len(ctx.lalpha), len(ctx.lalpha)-ctx.m
	ctx.ents = append(ctx.ents, make([]member, ctx.m+ctx.kept)...)
	nextReal, nextKept := 0, ctx.m
	for _, x := range ctx.lalpha {
		switch {
		case x.IsDummy() && x.BitsLen() > alpha:
			ctx.doomed = append(ctx.doomed, x)
		case !x.IsDummy():
			ctx.ents[nextReal] = newMember(x, d.state(x))
			if x == u {
				ctx.ui = nextReal
			} else if x == v {
				ctx.vi = nextReal
			}
			ctx.lists = append(ctx.lists, nextReal)
			nextReal++
		default:
			ctx.ents[nextKept] = newMember(x, d.state(x))
			ctx.lists = append(ctx.lists, nextKept)
			nextKept++
		}
	}
	d.pending = d.g.RemoveAll(ctx.doomed, alpha, d.pending)
	for _, x := range ctx.doomed {
		d.retire(x)
	}
	d.dummyCount -= len(ctx.doomed)
	res.DummiesDestroyed = len(ctx.doomed)
	ctx.spans = append(ctx.spans, listSpan{n: len(ctx.lists), level: alpha, split: true, hasU: true, hasV: true})
	ctx.rounds++ // parallel dummy self-destruction

	// Snapshot the old state the timestamp rules refer to ("in S_t"), into
	// one flat backing array per kind.
	for i := range ctx.ents[:ctx.m] {
		e := &ctx.ents[i]
		e.tOff, e.tLen, e.gLen = int32(len(ctx.oldWords)), int32(len(e.s.T)), int32(len(e.s.G))
		ctx.oldWords = append(append(ctx.oldWords, e.s.T...), e.s.G...)
		e.bOff, e.bLen = int32(len(ctx.oldBits)), int32(e.n.BitsLen())
		ctx.oldBits = e.n.AppendBits(ctx.oldBits)
		ctx.recordOldPath(i)
	}
	ctx.oldBu, ctx.oldBv = ctx.ents[ctx.ui].s.B, ctx.ents[ctx.vi].s.B

	// Notification broadcast: u and v flood l_alpha with their O(H_t) words
	// of state through the sub-skip-graph; pipelined under CONGEST.
	height := d.g.Height()
	ctx.rounds += d.cfg.A*(height-alpha) + 2*height

	d.computePriorities(ctx)
	d.mergeGroups(ctx)

	// Reassign the membership vector of every member above alpha.
	for _, e := range ctx.ents[:ctx.m] {
		e.n.TruncateBits(alpha)
	}
	d.runSplits(ctx)

	// The splits rewrote every member's membership vector and per-level
	// state up to its new singleton level; drop stale entries beyond it.
	for _, e := range ctx.ents[:ctx.m] {
		s := e.s
		depth := e.n.BitsLen()
		if len(s.T) > depth+2 {
			s.T = s.T[:depth+2]
		}
		if len(s.G) > depth+1 {
			s.G = s.G[:depth+1]
		}
		if len(s.D) > depth+1 {
			s.D = s.D[:depth+1]
		}
		if s.B > depth {
			s.B = depth
		}
	}

	// Install the dummies the balance pass created, then rebuild the links
	// of the transformed sub-skip-graph. The pass left l_alpha's complete new
	// membership in key order. The splits reassigned every vector above
	// alpha, so the region's links from alpha up are stale: the fresh
	// dummies link into the (intact) lists below alpha only and get the
	// rest from the Relink.
	dmLo, dmHi := ctx.newDummies()
	for _, o := range ctx.full[ctx.spans[0].fOff:][:ctx.spans[0].fN] {
		ctx.all = append(ctx.all, ctx.ents[o].n)
		if !ctx.isReal(o) {
			d.pendingDummies = append(d.pendingDummies, ctx.ents[o].n)
		}
		if o >= dmLo {
			ctx.fresh = append(ctx.fresh, ctx.ents[o].n)
		}
	}
	d.g.SpliceInBelowAll(ctx.fresh, alpha)
	d.dummyCount += len(ctx.fresh)
	res.DummiesInserted = len(ctx.fresh)
	d.g.Relink(ctx.all, alpha, nil)

	// Dirty record for the scoped post-request repair. The balance pass left
	// every rebuilt list balanced as built, so none of them is rescanned:
	// the repair is handed the region's dummies (d.pendingDummies, filled
	// above) — the only ones whose runs the rebuild changed — as
	// garbage-collection candidates, and the runs around each fresh dummy's
	// splices below alpha, where it joined lists the transformation did not
	// rebuild. The one rebuilt list that can hold a violation is one whose
	// breaker found no key; it is reported whole, in the order its head
	// comes in the region.
	if len(ctx.unplaced) > 0 {
		for i, ref := range ctx.unplaced {
			ctx.unplaced[i] = skipgraph.ListRef{Node: ref.Node.ListHead(int(ref.Level)), Level: ref.Level, Whole: true}
		}
		slices.SortFunc(ctx.unplaced, func(x, y skipgraph.ListRef) int {
			return cmp.Or(x.Node.Key().Compare(y.Node.Key()), cmp.Compare(x.Level, y.Level))
		})
		d.pending = append(d.pending, ctx.unplaced...)
	}
	for _, e := range ctx.ents[dmLo:dmHi] {
		for l := 0; l < alpha; l++ {
			d.pending = append(d.pending, skipgraph.ListRef{Node: e.n, Level: int32(l)})
		}
	}

	d.applyGroupBaseRules(ctx)
	d.applyTimestampRules(ctx)
	for _, e := range ctx.ents[dmLo:dmHi] {
		e.s.B = d.g.SingletonLevel(e.n)
	}

	res.TransformRounds = ctx.rounds
	if ok, lvl := d.g.DirectlyLinked(u, v); ok {
		res.DirectLevel = lvl
	} else {
		res.DirectLevel = -1
	}
	return res
}

// computePriorities applies priority rules P1–P3 (§IV-C) over l_alpha.
func (d *DSG) computePriorities(ctx *transformCtx) {
	t, alpha := ctx.t, ctx.alpha
	su, sv := ctx.ents[ctx.ui].s, ctx.ents[ctx.vi].s
	gu, gv := su.group(alpha), sv.group(alpha)
	for i := range ctx.ents[:ctx.m] {
		e := &ctx.ents[i]
		sx := e.s
		switch {
		case i == ctx.ui || i == ctx.vi:
			// P1: the communicating pair takes priority +∞.
			e.pri = amf.Infinite()
		case sx.group(alpha) == gu:
			// P2 w.r.t. u: min of the pair's timestamps at the highest
			// level where x still shares u's group.
			c := highestCommonGroupLevel(sx, su, alpha)
			e.pri = amf.Finite(min(sx.timestamp(c), su.timestamp(c)))
		case sx.group(alpha) == gv:
			// P2 w.r.t. v.
			c := highestCommonGroupLevel(sx, sv, alpha)
			e.pri = amf.Finite(min(sx.timestamp(c), sv.timestamp(c)))
		default:
			// P3: a non-communicating group occupies the distinct negative
			// band [-G·t, -G·t + t).
			e.pri = amf.Finite(-sx.group(alpha)*t + sx.timestamp(alpha+1))
		}
	}
}

// highestCommonGroupLevel returns the highest level c ≥ alpha at which the
// two states hold the same group-id.
func highestCommonGroupLevel(a, b *nodeState, alpha int) int {
	c := alpha
	for lvl := alpha; lvl < len(a.G) && lvl < len(b.G); lvl++ {
		if a.G[lvl] == b.G[lvl] {
			c = lvl
		} else {
			break
		}
	}
	return c
}

// mergeGroups merges u's and v's groups at level alpha (everyone adopts
// u's identifier as group-id) and runs the Appendix C lower-level group-id
// and group-base propagation when the pair's lower groups differ.
func (d *DSG) mergeGroups(ctx *transformCtx) {
	u, v, alpha := ctx.u, ctx.v, ctx.alpha
	su, sv := ctx.ents[ctx.ui].s, ctx.ents[ctx.vi].s
	gu, gv := su.group(alpha), sv.group(alpha)
	minB := min(ctx.oldBu, ctx.oldBv)
	for i := range ctx.ents[:ctx.m] {
		e := &ctx.ents[i]
		sx := e.s
		if sx.group(alpha) == gu || sx.group(alpha) == gv {
			sx.setGroup(alpha, u.ID())
			// Every member of the merged group shares the pair's lower
			// group-base (Appendix C's Glower propagation; see DESIGN.md
			// §3 — Fig 4 requires this for node E's level-1 timestamp).
			if minB < sx.B {
				sx.B = minB
			}
			e.merged = true
		}
	}
	if alpha == 0 || ctx.oldG(ctx.ui)[alpha-1] == ctx.oldGroup(ctx.vi, alpha-1) {
		// Lower groups already coincide (or there is nothing below alpha).
		for i := range ctx.ents[:ctx.m] {
			ctx.ents[i].glower = ctx.ents[i].merged
		}
		return
	}
	// Appendix C: pick Glower from the node with the smaller group-base,
	// broadcast it through l_max(Bu,Bv), and stamp it below alpha.
	bu, bv := ctx.oldBu, ctx.oldBv
	source, srcOld := u, ctx.oldG(ctx.ui)
	if bv < bu {
		source, srcOld = v, ctx.oldG(ctx.vi)
	}
	glower := ctx.glow[:0]
	for i := 0; i < alpha; i++ {
		if i < len(srcOld) {
			glower = append(glower, srcOld[i])
		} else {
			glower = append(glower, source.ID())
		}
	}
	ctx.glow = glower
	maxB, minB := max(bu, bv), min(bu, bv)
	// Recipients: nodes of the level-max(Bu,Bv) list containing u and v
	// whose group there matches u's or v's old group.
	if maxB <= alpha {
		guB := ctx.oldGroup(ctx.ui, maxB)
		gvB := ctx.oldGroup(ctx.vi, maxB)
		for y := u.ListHead(maxB); y != nil; y = y.Next(maxB) {
			if y.IsDummy() {
				continue
			}
			sy := d.state(y)
			if sy.group(maxB) == guB || sy.group(maxB) == gvB {
				sy.B = minB
				for i := 0; i < alpha; i++ {
					sy.setGroup(i, glower[i])
				}
				if o, ok := ctx.ordOf(y); ok {
					ctx.ents[o].glower = true
				} else {
					ctx.glowerOut = append(ctx.glowerOut, sy)
				}
			}
		}
		ctx.rounds += d.cfg.A * (d.g.Height() - maxB) // broadcast in the sub-skip-graph
	}
	for i := range ctx.ents[:ctx.m] {
		e := &ctx.ents[i]
		if !e.merged {
			continue
		}
		for i := 0; i < alpha; i++ {
			e.s.setGroup(i, glower[i])
		}
		e.glower = true
	}
}
