package core

import (
	"errors"
	"fmt"

	"lsasg/internal/skipgraph"
)

// ErrUnknownNode is wrapped by Adjust when an endpoint id is not in the
// graph, and by Crash for an id it cannot find. The step reports an
// unknown endpoint as the op's miss instead (see Access).
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

// pair resolves a request's endpoints: two distinct live real nodes, or the
// reason there is no request to serve — ErrUnknownNode for an id not in the
// graph, ErrCrashedNode for a dead endpoint (a transformation must not
// resurrect a corpse into a group).
func (d *DSG) pair(uid, vid int64) (u, v *skipgraph.Node, err error) {
	u, v = d.NodeByID(uid), d.NodeByID(vid)
	switch {
	case u == nil:
		err = fmt.Errorf("%w: %d", ErrUnknownNode, uid)
	case v == nil:
		err = fmt.Errorf("%w: %d", ErrUnknownNode, vid)
	case u == v:
		err = fmt.Errorf("core: self-communication for id %d", uid)
	case u.Dead():
		err = fmt.Errorf("%w: %d", ErrCrashedNode, uid)
	case v.Dead():
		err = fmt.Errorf("%w: %d", ErrCrashedNode, vid)
	}
	return u, v, err
}

// Serve handles one communication request between the real nodes with the
// given identifiers with the step (ApplyOp): it routes u → v in the current
// topology — repairing each crashed intermediate the route contacts, then
// routing again — and adjusts (the DSG transformation, §IV-C through §IV-F,
// and its scoped a-balance repair). An unknown or dead endpoint is returned
// as the error (the route's miss: skipgraph.ErrUnknownKey, or a
// skipgraph.DeadRouteError naming the endpoint) and nothing is adjusted.
func (d *DSG) Serve(uid, vid int64) (OpResult, error) {
	r, err := d.ApplyOp(RouteOp(uid, vid))
	if err == nil {
		err = r.Miss
	}
	return r, err
}

// Adjust is the adaptation step of one request: it applies the DSG
// transformation for the pair (u, v), then repairs a-balance over exactly
// what the transformation dirtied, so the graph is a-balanced again when it
// returns. Routing is the caller's: the step (Access, then AdjustAccess)
// routes on this graph first and measures it.
func (d *DSG) Adjust(uid, vid int64) (AdjustResult, error) {
	u, v, err := d.pair(uid, vid)
	if err != nil {
		return AdjustResult{}, err
	}
	return d.adjust(u, v)
}

// adjust is Adjust on a resolved pair, and the only caller of transform.
func (d *DSG) adjust(u, v *skipgraph.Node) (AdjustResult, error) {
	d.clock++
	res := d.transform(u, v, d.clock)
	res.RepairInserted, res.RepairRemoved = d.repairPending()
	res.HeightAfter = d.g.Height()
	if d.cfg.CheckInvariants {
		if err := d.checkInvariants(u, v); err != nil {
			return res, fmt.Errorf("core: invariant violated after request %d: %w", d.clock, err)
		}
	}
	return res, nil
}

// repairPending repairs a-balance over the dirty record the transformation
// just left and empties it, keeping the backing arrays for the next one.
func (d *DSG) repairPending() (inserted, removed int) {
	inserted, removed = d.RepairBalanceIn(d.pending, d.pendingDummies)
	d.pending, d.pendingDummies = recycle(d.pending), recycle(d.pendingDummies)
	return inserted, removed
}
