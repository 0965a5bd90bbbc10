package core

import "errors"

// ErrUnknownNode is wrapped by Crash for an id it cannot find. The step
// reports an unknown endpoint as the op's miss instead (see Access).
var ErrUnknownNode = errors.New("core: unknown node id")

// AdjustResult reports one applied transformation: the adaptation-side
// measures of one request step.
type AdjustResult struct {
	Time            int64 // logical time t of the transformation
	Alpha           int   // highest common level of the pair before transforming
	TransformRounds int   // ρ: synchronous rounds spent transforming
	DirectLevel     int   // level of the new size-2 list holding the pair
	HeightAfter     int   // graph height after the transformation and its repair

	// LAlpha is |l_alpha| as the transformation walked it, dummies included,
	// and LAlphaDummies the dummies among them: the list it rebuilds, which
	// is what an adjustment costs in proportion to.
	LAlpha        int
	LAlphaDummies int

	// DummiesInserted/DummiesDestroyed count the dummies the transformation
	// itself placed in, and notified out of, the region it rebuilt (§IV-F).
	DummiesInserted  int
	DummiesDestroyed int

	// RepairInserted/RepairRemoved count the scoped a-balance repair actions
	// the transformation triggered outside that region.
	RepairInserted int
	RepairRemoved  int
}

// repairPending repairs a-balance over the dirty record the transformation
// just left and empties it, keeping the backing arrays for the next one.
func (d *DSG) repairPending() (inserted, removed int) {
	inserted, removed = d.RepairBalanceIn(d.pending, d.pendingDummies)
	d.pending, d.pendingDummies = recycle(d.pending), recycle(d.pendingDummies)
	return inserted, removed
}
