package core

import (
	"errors"
	"fmt"

	"lsasg/internal/skipgraph"
)

// ErrUnknownNode is wrapped by Serve and Adjust when an endpoint id is not
// in the graph. The serving engine matches it (errors.Is): a route whose
// endpoint a Delete removed earlier in the op stream is a per-op miss, not a
// failure.
var ErrUnknownNode = errors.New("core: unknown node id")

// AdjustResult reports one applied transformation: the adaptation-side
// measures of one request step.
type AdjustResult struct {
	Time            int64 // logical time t of the transformation
	Alpha           int   // highest common level of the pair before transforming
	TransformRounds int   // ρ: synchronous rounds spent transforming
	DirectLevel     int   // level of the new size-2 list holding the pair
	HeightAfter     int   // graph height after the transformation and its repair

	// DummiesInserted/DummiesDestroyed count the dummies the transformation
	// itself placed in, and notified out of, the region it rebuilt (§IV-F).
	DummiesInserted  int
	DummiesDestroyed int

	// RepairInserted/RepairRemoved count the scoped a-balance repair actions
	// the transformation triggered outside that region.
	RepairInserted int
	RepairRemoved  int
}

// RequestResult summarizes one served communication request: the route,
// then the adjustment.
type RequestResult struct {
	AdjustResult

	RouteDistance int // d_S(σ): intermediate nodes on the routing path
	RouteHops     int // link traversals (RouteDistance + 1)
}

// ServiceCost returns the paper's cost of serving the request:
// d_St(σ) + ρ + 1 (§III).
func (r RequestResult) ServiceCost() int {
	return r.RouteDistance + r.TransformRounds + 1
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
// given identifiers: it routes u → v in the current topology, then adjusts
// (Adjust: the DSG transformation, §IV-C through §IV-F, and its scoped
// a-balance repair).
//
// Serve tolerates crashed intermediates: a route that contacts a dead peer
// (skipgraph.DeadRouteError) detects the failure, repairs it locally
// (repairCrashed), and re-routes — each retry removes one dead node, so the
// loop terminates. A crashed ENDPOINT is the caller's failure, reported as
// ErrCrashedNode without a transformation.
func (d *DSG) Serve(uid, vid int64) (RequestResult, error) {
	u, v, err := d.pair(uid, vid)
	if err != nil {
		return RequestResult{}, err
	}
	var route skipgraph.RouteResult
	for {
		r, err := d.g.Route(u, v)
		if err == nil {
			route = r
			break
		}
		var dre *skipgraph.DeadRouteError
		if errors.As(err, &dre) && dre.Node != u && dre.Node != v {
			// Failure detector fired on an intermediate: repair it in place
			// and retry. The dead population strictly shrinks per retry.
			d.crashDetectCount++
			d.repairCrashed(dre.Node)
			continue
		}
		return RequestResult{}, fmt.Errorf("core: routing failed: %w", err)
	}
	adj, err := d.adjust(u, v)
	return RequestResult{AdjustResult: adj, RouteDistance: route.Distance(), RouteHops: route.Hops()}, err
}

// Adjust is the adaptation step of one request: it applies the DSG
// transformation for the pair (u, v), then repairs a-balance over exactly
// what the transformation dirtied, so the graph is a-balanced again when it
// returns. Routing is the caller's: Serve routes on this graph first, the
// serving engine (internal/serve) routes in its own phase and measures it.
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
