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

// This file is the synchronous op surface: one op at a time against an
// otherwise-idle service. A synchronous op is a one-op window through the
// Serve pipeline's own dispatch, engine batch step and outcome assembly, so
// it decomposes into the same legs, measures the same route and adapts the
// topology exactly like a pipelined one.

// Apply serves one op synchronously and returns its assembled outcome,
// which OnOutcome also observes. A route one of whose endpoints is unknown
// or dead is counted and observed as the miss it is in Serve, and Apply
// returns its routing error; every other kind is total, as in Serve.
//
// Synchronous ops feed the load window like pipelined ones: once
// RebalanceEvery ops have been counted into it — by Apply calls alone, or on
// top of a Serve run that ended mid-window — the planner runs at this op's
// barrier and may migrate one key range before Apply returns. The barrier
// comes after the op is served, counted and observed, so a migration failure
// is returned, wrapping ErrBarrier, together with the op's valid outcome.
// An op an engine failed to serve has no outcome: it is counted nowhere, and
// the load window is left as it was.
func (s *Service) Apply(op core.Op) (Outcome, error) {
	if !s.serving.CompareAndSwap(false, true) {
		return Outcome{}, fmt.Errorf("shard: Apply on a service that is already serving")
	}
	defer s.serving.Store(false)
	if err := s.checkOp(op); err != nil {
		return Outcome{}, err
	}
	var st ServeStats
	dir := s.dir.Load()
	s.win.reset()
	s.dispatch(dir, op, &st)
	if err := s.run(&st); err != nil {
		s.feedLoad(op, -1)
		return Outcome{Op: op}, err
	}
	o := s.assemble(&s.win.pending[0], &st)
	s.totals.add(&st)
	if s.cfg.OnOutcome != nil {
		s.cfg.OnOutcome(o)
	}
	if s.loadOps >= s.cfg.rebalanceEvery() {
		err := s.rebalance(dir)
		s.resetLoad()
		if err != nil {
			return o, fmt.Errorf("%w after the op was served: %w", ErrBarrier, err)
		}
	}
	return o, o.Err
}
