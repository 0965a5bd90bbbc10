package shard

import (
	"errors"

	"lsasg/internal/core"
)

// ErrBarrier marks an error that comes from behind the op — the
// rebalancer's migration at a window barrier, or an adjustment that failed
// behind an earlier answer and that this call settled — and not from the op:
// from Apply the outcome returned next to it is valid, counted and observed,
// and its own error, if any, is in Outcome.Err; any other call returning it
// did nothing else.
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
// wrapping ErrBarrier, together with the op's valid outcome. An op a shard
// failed to serve has no outcome: it is counted nowhere, and the load window
// is left as it was.
//
// On more than one shard, Apply returns once the op's legs have routed
// (unless a barrier follows): the outcome is complete but for
// TransformRounds, Alpha and DirectLevel, which stay zero, and each shard
// the op touched finishes its adjustment behind the answer, on a goroutine
// of its own, until the next call that reads that shard settles it. So a
// caller's next op routes on another shard while this one's shard still
// adjusts. An adjustment that fails behind its answer is reported, wrapping
// ErrBarrier, by that settling call. On one shard the adjustment runs before
// Apply returns.
func (s *Service) Apply(op core.Op) (Outcome, error) { return s.apply(op, true) }

// ApplyAdjusted is Apply that returns only once the op's adjustment has
// run, on every shard count, so its outcome carries TransformRounds, Alpha
// and DirectLevel.
func (s *Service) ApplyAdjusted(op core.Op) (Outcome, error) { return s.apply(op, false) }

func (s *Service) apply(op core.Op, behind bool) (Outcome, error) {
	if err := s.reserve("Apply"); err != nil {
		return Outcome{}, err
	}
	defer s.serving.Store(false)
	if err := s.checkOp(op); err != nil {
		return Outcome{}, err
	}
	var st ServeStats
	o, err := s.serveWindow([]core.Op{op}, &st, behind)
	if err != nil && !errors.Is(err, ErrBarrier) {
		return Outcome{Op: op}, err
	}
	s.totals.add(&st)
	if err != nil {
		return o, err
	}
	return o, o.Err
}
