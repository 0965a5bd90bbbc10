package core

import (
	"errors"
	"fmt"
)

// ErrUnknownNode is wrapped by Adjust when an endpoint id is not in the
// graph. A serving engine with TolerateAdjustMiss matches it (errors.Is) to
// tolerate a route leg whose endpoint a Delete removed earlier in the same
// op stream.
var ErrUnknownNode = errors.New("core: unknown node id")

// Pair is one communication request by node identifiers, the unit the
// concurrent serving engine (internal/serve) feeds into the adjuster.
type Pair struct {
	Src, Dst int64
}

// AdjustResult reports one applied transformation: the non-routing half of
// Serve. Routing happened elsewhere (in the serving engine's route phase),
// so only the adaptation-side measures appear here.
type AdjustResult struct {
	Time            int64 // logical time t of the transformation
	Alpha           int   // highest common level of the pair before transforming
	TransformRounds int   // ρ: synchronous rounds spent transforming
	DirectLevel     int   // level of the new size-2 list holding the pair
	HeightAfter     int   // graph height after the transformation

	// RepairInserted/RepairRemoved count the scoped a-balance repair actions
	// (RepairBalancePending) the transformation triggered.
	RepairInserted int
	RepairRemoved  int
}

// Adjust applies the DSG transformation for the pair (u, v) without routing
// first, then repairs a-balance over exactly the lists the transformation
// dirtied (RepairBalancePending). It is the adaptation half of Serve, split
// out so a serving engine can route a whole batch of requests in parallel
// first and then apply the batch's transformations in order.
func (d *DSG) Adjust(uid, vid int64) (AdjustResult, error) {
	u, v := d.NodeByID(uid), d.NodeByID(vid)
	if u == nil || v == nil {
		return AdjustResult{}, fmt.Errorf("%w: %d or %d", ErrUnknownNode, uid, vid)
	}
	if u == v {
		return AdjustResult{}, fmt.Errorf("core: self-communication for id %d", uid)
	}
	if u.Dead() || v.Dead() {
		// The pair routed before the crash; the transformation must not
		// resurrect a dead endpoint into a group.
		return AdjustResult{}, fmt.Errorf("%w: %d or %d", ErrCrashedNode, uid, vid)
	}
	d.clock++
	r := d.transform(u, v, d.clock)
	ins, rem := d.RepairBalancePending()
	if d.cfg.CheckInvariants {
		if err := d.checkInvariants(u, v); err != nil {
			return AdjustResult{}, fmt.Errorf("core: invariant violated after adjustment %d: %w", d.clock, err)
		}
	}
	return AdjustResult{
		Time:            r.Time,
		Alpha:           r.Alpha,
		TransformRounds: r.TransformRounds,
		DirectLevel:     r.DirectLevel,
		HeightAfter:     d.g.Height(),
		RepairInserted:  ins,
		RepairRemoved:   rem,
	}, nil
}

// ApplyBatch applies the transformations for a batch of pairs in order, each
// followed by its scoped balance repair, and returns one result per pair.
// This is the adjuster's batch entry point: the caller routes the next
// batch only after this one returns, so the routing side observes
// adjustments at batch granularity. A failing pair aborts the batch; the
// already-applied prefix remains applied (results carries exactly the applied
// prefix alongside the error).
func (d *DSG) ApplyBatch(pairs []Pair) ([]AdjustResult, error) {
	results := make([]AdjustResult, 0, len(pairs))
	for i, p := range pairs {
		r, err := d.Adjust(p.Src, p.Dst)
		if err != nil {
			return results, fmt.Errorf("core: batch pair %d (%d→%d): %w", i, p.Src, p.Dst, err)
		}
		results = append(results, r)
	}
	return results, nil
}
