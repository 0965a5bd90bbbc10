package core

import (
	"errors"
	"fmt"
)

// ErrUnknownNode is wrapped by Adjust when an endpoint id is not in the
// graph. The serving engine matches it (errors.Is): a route whose endpoint a
// Delete removed earlier in the op stream is a per-op miss, not a failure.
var ErrUnknownNode = errors.New("core: unknown node id")

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
// out so the serving engine (internal/serve) can measure the route itself.
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
