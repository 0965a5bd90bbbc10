package shard

import (
	"errors"
	"fmt"

	"lsasg/internal/core"
)

// ErrBarrier marks an Apply error that comes from the window barrier behind
// the op — the rebalancer's migration — and not from the op: the outcome
// returned next to it is valid, counted and observed, and its own error, if
// any, is in Outcome.Err.
var ErrBarrier = errors.New("shard: window barrier failed")

// Apply serves one op synchronously — a one-op window through serveWindow,
// the driver Serve runs, so it decomposes into the same legs, measures the
// same route, adapts the topology and is counted exactly like a streamed
// op — and returns its assembled outcome, which OnOutcome also observes. A
// route one of whose endpoints is unknown or dead is counted and observed as
// the miss it is in Serve, and Apply returns its routing error; every other
// kind is total, as in Serve.
//
// Once RebalanceEvery ops have been counted into the load window — by Apply
// calls, Serve runs, or both — the planner runs at this op's barrier and may
// migrate one key range before Apply returns. The barrier comes after the op
// is served, counted and observed, so a migration failure is returned,
// wrapping ErrBarrier, together with the op's valid outcome. An op an engine
// failed to serve has no outcome: it is counted nowhere, and the load window
// is left as it was.
func (s *Service) Apply(op core.Op) (Outcome, error) {
	if !s.serving.CompareAndSwap(false, true) {
		return Outcome{}, fmt.Errorf("shard: Apply on a service that is already serving")
	}
	defer s.serving.Store(false)
	if err := s.checkOp(op); err != nil {
		return Outcome{}, err
	}
	var st ServeStats
	o, err := s.serveWindow([]core.Op{op}, &st)
	if err != nil && !errors.Is(err, ErrBarrier) {
		return Outcome{Op: op}, err
	}
	s.totals.add(&st)
	if err != nil {
		return o, err
	}
	return o, o.Err
}
