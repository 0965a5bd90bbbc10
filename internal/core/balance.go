package core

import "lsasg/internal/skipgraph"

// repairBalance scans the freshly split list L (level dl) for runs of more
// than `a` consecutive members assigned to the same side and breaks each by
// inserting a dummy node into the sibling subgraph (§IV-F). Dummies copy
// the list's membership prefix, take the opposite bit at dl+1, and stop
// there — per the paper they do not participate in transformations, so they
// never split further. Existing dummies in L (which carry no dl+1 bit) act
// as chain boundaries. The rebuilt list, dummies in position, is returned
// (L itself when nothing was added; otherwise scratch valid until the next
// call).
func (d *DSG) repairBalance(ctx *transformCtx, L []int, dl int) ([]int, int) {
	a := d.cfg.A
	if len(L) <= a {
		return L, 0
	}
	bitLevel := dl + 1
	out := ctx.with[:0]
	added := 0
	run := 0
	var runZero bool
	for _, o := range L {
		x := ctx.ents[o].n
		if !x.HasBit(bitLevel) {
			// An old dummy: it belongs to neither subgraph and breaks any
			// chain through it.
			out = append(out, o)
			run = 0
			continue
		}
		zero := x.Bit(bitLevel) == 0
		if run > 0 && zero == runZero {
			run++
			if run > a {
				prev := ctx.ents[out[len(out)-1]].n
				if dm, ok := d.makeDummy(ctx, prev, x, dl, !zero); ok {
					out = append(out, dm)
					added++
					run = 1
				}
			}
		} else {
			run = 1
			runZero = zero
		}
		out = append(out, o)
	}
	ctx.with = out
	if added == 0 {
		return L, 0
	}
	return out, added
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
	id := d.nextDummyID
	d.nextDummyID++
	dm := skipgraph.NewDummy(key, id)
	for i := 1; i <= dl; i++ {
		dm.SetBit(i, left.Bit(i))
	}
	if zero {
		dm.SetBit(dl+1, 0)
	} else {
		dm.SetBit(dl+1, 1)
	}
	s := newDummyState(id, dl+1)
	d.st[dm] = s
	return ctx.add(dm, s), true
}

// freeKeyBetween finds a key strictly between a and b that is neither in
// the graph nor reserved for a dummy created earlier this request.
func (d *DSG) freeKeyBetween(ctx *transformCtx, a, b skipgraph.Key) (skipgraph.Key, bool) {
	lo, hi := ctx.newDummies()
	return freeKeyIn(a, b, func(k skipgraph.Key) bool {
		if d.g.ByKey(k) != nil {
			return true
		}
		for i := lo; i < hi; i++ {
			if ctx.ents[i].n.Key() == k {
				return true
			}
		}
		return false
	})
}
