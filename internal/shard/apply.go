package shard

import (
	"fmt"

	"lsasg/internal/core"
)

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
// ("shard: rebalance after the op was served: ...") is returned together
// with the op's valid outcome.
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
		s.totals.add(&st) // dispatched and fed to the load window, as in Serve
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
			return o, fmt.Errorf("shard: rebalance after the op was served: %w", err)
		}
	}
	return o, o.Err
}
