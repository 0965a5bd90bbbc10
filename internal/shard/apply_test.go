package shard

import (
	"errors"
	"testing"

	"lsasg/internal/core"
)

// loadWindowEmpty reports whether nothing is counted into the load window.
func loadWindowEmpty(s *Service) bool {
	for _, l := range s.keyLoad {
		if l != 0 {
			return false
		}
	}
	return s.loadOps == 0
}

// TestApplyBarrierFailureKeepsOutcome: at S = 2 with a load window of one
// op, an intra-shard route on shard 0 makes the planner donate the top of
// shard 0's range — down to the route's upper endpoint — to shard 1. Shard 1
// has been made to hold that key already, so the migration fails after the
// op was served. Apply must return the served op's outcome next to an error
// that says the barrier failed, not the op.
func TestApplyBarrierFailureKeepsOutcome(t *testing.T) {
	var seen []Outcome
	svc, err := New(64, Config{Shards: 2, A: 4, Seed: 3, RebalanceEvery: 1,
		OnOutcome: func(o Outcome) { seen = append(seen, o) }})
	if err != nil {
		t.Fatal(err)
	}
	_, hi := svc.dir.Load().Range(0)
	if _, err := svc.shards[1].dsg.Add(hi - 1); err != nil {
		t.Fatal(err)
	}
	op := core.RouteOp(0, hi-1)
	o, err := svc.Apply(op)
	if !errors.Is(err, ErrBarrier) {
		t.Fatalf("Apply returned %v, want an error wrapping ErrBarrier", err)
	}
	if o.Op.Src != op.Src || o.Op.Dst != op.Dst || o.Err != nil || o.RouteHops == 0 || o.TransformRounds == 0 {
		t.Fatalf("outcome next to the barrier error is not the served op's: %+v", o)
	}
	if len(seen) != 1 || seen[0].RouteHops != o.RouteHops {
		t.Fatalf("OnOutcome saw %d outcomes, want the one served op", len(seen))
	}
	if tot := svc.Totals(); tot.Requests != 1 || tot.Rebalances != 0 {
		t.Fatalf("totals count %d requests and %d rebalances, want 1 and 0", tot.Requests, tot.Rebalances)
	}
	if !loadWindowEmpty(svc) {
		t.Fatalf("the failed barrier left its load window behind: %d ops", svc.loadOps)
	}
	if ok, _ := svc.DirectlyLinked(0, hi-1); !ok {
		t.Fatal("the op next to the barrier error did not take effect")
	}
}

// TestApplyEngineFailureLeavesNoTrace: an op its shard's step fails to
// serve has no outcome, so neither the lifetime books nor the load window
// may count it. With invariant checks on and shard 0's state corrupted
// (plantCorruption), the adjustment of an op on shard 0 fails; ApplyAdjusted
// runs it inline, so the failure is the op's own.
func TestApplyEngineFailureLeavesNoTrace(t *testing.T) {
	outcomes := 0
	svc, err := New(64, Config{Shards: 4, A: 4, Seed: 3, RebalanceEvery: 4, CheckInvariants: true,
		OnOutcome: func(Outcome) { outcomes++ }})
	if err != nil {
		t.Fatal(err)
	}
	plantCorruption(t, svc)
	before := svc.Totals()
	if _, err := svc.ApplyAdjusted(core.RouteOp(1, 5)); err == nil || errors.Is(err, ErrBarrier) {
		t.Fatalf("ApplyAdjusted returned %v, want the step's failure", err)
	}
	if svc.Totals() != before || outcomes != 0 {
		t.Fatalf("the unserved op was counted: totals %+v, %d outcomes", svc.Totals(), outcomes)
	}
	if !loadWindowEmpty(svc) {
		t.Fatalf("the unserved op stayed in the load window: %d ops, key loads %d and %d",
			svc.loadOps, svc.keyLoad[1], svc.keyLoad[5])
	}
	// The next op, on a healthy shard, is served and counted as the
	// window's first.
	if _, err := svc.Apply(core.RouteOp(20, 28)); err != nil {
		t.Fatal(err)
	}
	if got := svc.Totals().Requests; got != before.Requests+1 || svc.loadOps != 1 || outcomes != 1 {
		t.Fatalf("after one served op: %d requests, %d in the load window, %d outcomes", got, svc.loadOps, outcomes)
	}
}
