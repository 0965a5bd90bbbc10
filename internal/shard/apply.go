package shard

import (
	"fmt"

	"lsasg/internal/core"
)

// This file is the synchronous op surface: one op at a time against an
// otherwise-idle service. A synchronous op is a one-op window through the
// Serve pipeline's own dispatch, engine batch step and outcome assembly, so
// it decomposes into the same legs, measures the same route and adapts the
// topology exactly like a pipelined one. It feeds no load window: the
// rebalancer judges Serve traffic only.

// Apply serves one op synchronously and returns its assembled outcome,
// which OnOutcome also observes. A route one of whose endpoints is unknown
// or dead returns that routing error and is not counted; every other kind
// is total, as in Serve.
func (s *Service) Apply(op core.Op) (Outcome, error) {
	if !s.serving.CompareAndSwap(false, true) {
		return Outcome{}, fmt.Errorf("shard: Apply on a service that is already serving")
	}
	defer s.serving.Store(false)
	if err := s.checkOp(op); err != nil {
		return Outcome{}, err
	}
	var st ServeStats
	s.win.reset()
	s.dispatch(s.dir.Load(), op, &st)
	if err := s.run(&st); err != nil {
		return Outcome{Op: op}, err
	}
	o := s.assemble(&s.win.pending[0], &st)
	if o.Err != nil {
		return o, o.Err
	}
	s.totals.add(&st)
	if s.cfg.OnOutcome != nil {
		s.cfg.OnOutcome(o)
	}
	return o, nil
}
