package core

import "lsasg/internal/skipgraph"

// balanceList is one step of the transformation's bottom-up balance pass
// (§IV-F; runSplits calls it for every list of the region, deepest first).
// It assembles the complete membership of the list ctx.spans[at] — the
// key-merge of its two sublists' complete memberships, already final, and
// its own members without a next-level bit (the kept dummies of l_alpha) —
// and, in the same walk, breaks every run of more than `a` consecutive
// members on the same side: a dummy keyed between the a-th and (a+1)-th
// member goes to the sibling subgraph. As in the balance scanners, only a
// run holding a real member counts; a run of breakers costs nothing above
// and demanding breakers for it would never end at a = 2. Dummies copy the
// list's membership prefix, take the opposite bit one level up and stop
// there — per the paper they do not participate in transformations, so
// they never split further: in the sublist they join they are a boundary,
// not a run member, which is why a list balanced earlier stays balanced.
// The result is appended to ctx.full, the buffer of the list's level, for
// the parent list's merge; the sublists' are read from ctx.below.
func (d *DSG) balanceList(ctx *transformCtx, at int) {
	sp := &ctx.spans[at]
	sp.fOff = len(ctx.full)
	if sp.kids == [2]int{} {
		// Unsplit: a lone real member, or the pair's list. No member has a
		// bit above this level, so there is no run to break.
		ctx.full = append(ctx.full, ctx.lists[sp.off:sp.off+sp.n]...)
		sp.fN = sp.n
		return
	}
	// The three key-ordered sources, indexed by the side their members are
	// on: the 0-sublist, the 1-sublist, and the members on neither side.
	const boundary = 2
	var src [3][]int
	for side, kid := range sp.kids {
		if kid > 0 {
			src[side] = ctx.below[ctx.spans[kid].fOff:][:ctx.spans[kid].fN]
		}
	}
	if at == 0 {
		own := ctx.boundaries[:0]
		for _, o := range ctx.lists[sp.off : sp.off+sp.n] {
			if !ctx.isReal(o) {
				own = append(own, o)
			}
		}
		ctx.boundaries, src[boundary] = own, own
	}
	a, added := d.cfg.A, 0
	run, runSide, runHasReal := 0, 0, false
	for {
		side := -1
		for s, q := range src {
			if len(q) > 0 && (side < 0 || ctx.keyLess(q[0], src[side][0])) {
				side = s
			}
		}
		if side < 0 {
			break
		}
		o := src[side][0]
		src[side] = src[side][1:]
		switch {
		case side == boundary:
			run = 0 // it breaks any chain through it
		case run > 0 && side == runSide:
			run++
			runHasReal = runHasReal || ctx.isReal(o)
			if run > a && runHasReal {
				prev := ctx.ents[ctx.full[len(ctx.full)-1]].n
				if dm, ok := d.makeDummy(ctx, prev, ctx.ents[o].n, sp.level, side == 1); ok {
					ctx.full = append(ctx.full, dm)
					added++
					if sp.kids[1-side] == ctx.pairSpan {
						ctx.pairGuests++
					}
					run, runHasReal = 1, ctx.isReal(o)
				} else {
					ctx.unplaced = append(ctx.unplaced, skipgraph.ListRef{Node: prev, Level: int32(sp.level)})
				}
			}
		default:
			run, runSide, runHasReal = 1, side, ctx.isReal(o)
		}
		ctx.full = append(ctx.full, o)
	}
	sp.fN = len(ctx.full) - sp.fOff
	if added > 0 {
		sp.rounds += a // chain detection handshake
	}
}

// makeDummy creates a dummy node keyed strictly between left and right,
// sharing their membership prefix through level dl and taking the sibling
// subgraph at level dl+1 (`zero` selects the 0-subgraph), and returns its
// ordinal. It returns false when no key slot is free, in which case the
// chain stays unrepaired.
func (d *DSG) makeDummy(ctx *transformCtx, left, right *skipgraph.Node, dl int, zero bool) (int, bool) {
	key, ok := d.freeKeyBetween(ctx, left.Key(), right.Key())
	if !ok {
		return 0, false
	}
	ctx.dummyKeys[key] = struct{}{}
	id := d.nextDummyID
	d.nextDummyID++
	dm := newDummy(key, id, dl+1)
	for i := 1; i <= dl; i++ {
		dm.SetBit(i, left.Bit(i))
	}
	if zero {
		dm.SetBit(dl+1, 0)
	} else {
		dm.SetBit(dl+1, 1)
	}
	return ctx.add(dm, stateOf(dm)), true
}

// freeKeyBetween finds a key strictly between a and b that is neither in
// the graph nor reserved for a dummy created earlier this request.
func (d *DSG) freeKeyBetween(ctx *transformCtx, a, b skipgraph.Key) (skipgraph.Key, bool) {
	return freeKeyIn(a, b, func(k skipgraph.Key) bool {
		_, reserved := ctx.dummyKeys[k]
		return reserved || d.g.ByKey(k) != nil
	})
}
