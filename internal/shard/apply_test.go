package shard

import (
	"context"
	"errors"
	"testing"

	"lsasg/internal/core"
	"lsasg/internal/skipgraph"
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

// unlinkKey relinks shard 0's lists without key id: the graph still knows
// the key, but no list leads to it, so a route to it gets stuck — a failure
// of the step's route half, not a miss.
func unlinkKey(t *testing.T, svc *Service, id int64) {
	t.Helper()
	g := svc.shards[0].dsg.Graph()
	var rest []*skipgraph.Node
	for x := range g.All() {
		if x.ID() != id {
			rest = append(rest, x)
		}
	}
	g.Relink(rest, 0, nil)
	if _, err := g.RouteKeys(skipgraph.KeyOf(1), skipgraph.KeyOf(id)); err == nil || errors.Is(err, skipgraph.ErrUnknownKey) {
		t.Fatalf("a route to the unlinked key %d returned %v, want it stuck", id, err)
	}
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
// may count it. With key 5 unlinked from shard 0's lists (unlinkKey), the
// route half of the op 1→5 gets stuck, and the failure is the op's own.
func TestApplyEngineFailureLeavesNoTrace(t *testing.T) {
	outcomes := 0
	svc, err := New(64, Config{Shards: 4, A: 4, Seed: 3, RebalanceEvery: 4,
		OnOutcome: func(Outcome) { outcomes++ }})
	if err != nil {
		t.Fatal(err)
	}
	unlinkKey(t, svc, 5)
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

// TestServeStepFailureLeavesNoTrace: a window whose step fails on one shard
// delivers the ops before the failing one and counts only those. At S = 4,
// with key 5 unlinked from shard 0's lists (unlinkKey), the route 1→5 gets
// stuck inside a window of six ops — cross-shard routes, point ops and a
// scan fanned over every shard among them, whose legs on the other shards
// do run. Only the route before it is delivered, so the run's
// books and the lifetime books are that one op's: its request, class, leg,
// distance and ρ, and nothing of the ops behind it.
func TestServeStepFailureLeavesNoTrace(t *testing.T) {
	var delivered []Outcome
	svc, err := New(64, Config{Shards: 4, A: 4, Seed: 3, RebalanceEvery: 64,
		OnOutcome: func(o Outcome) { delivered = append(delivered, o) }})
	if err != nil {
		t.Fatal(err)
	}
	unlinkKey(t, svc, 5)
	ops := []core.Op{
		core.RouteOp(20, 28),
		core.RouteOp(1, 5), // fails on shard 0
		{Kind: core.OpGet, Src: 2, Dst: 40},
		{Kind: core.OpPut, Src: 3, Dst: 50, Value: []byte("v")},
		{Kind: core.OpScan, Src: 4, Dst: 0, Limit: 3},
		core.RouteOp(6, 60),
	}
	st, err := svc.Serve(context.Background(), feedOps(ops))
	if err == nil || errors.Is(err, ErrBarrier) {
		t.Fatalf("Serve returned %v, want the step's failure", err)
	}
	if len(delivered) != 1 || delivered[0].Op.Src != 20 || delivered[0].Op.Dst != 28 {
		t.Fatalf("delivered %+v, want the first route alone", delivered)
	}
	o := delivered[0]
	if st.Requests != 1 || st.Intra != 1 || st.Cross != 0 || st.Legs != 1 ||
		st.Gets+st.Puts+st.Deletes+st.Scans != 0 ||
		st.TotalRouteDistance != int64(o.RouteDistance) || st.TotalRouteHops != int64(o.RouteHops) ||
		st.MaxLegDistance != int64(o.RouteDistance) || st.TotalTransformRounds != int64(o.TransformRounds) {
		t.Errorf("the run counted more than the delivered op %+v: %+v", o, st)
	}
	if tot := svc.Totals(); tot.Requests != 1 || tot.TotalRouteDistance != int64(o.RouteDistance) || tot.TotalTransformRounds != int64(o.TransformRounds) {
		t.Errorf("lifetime books %+v, want the delivered op's alone", tot)
	}
	if svc.loadOps != 1 {
		t.Errorf("the load window holds %d ops, want the delivered one", svc.loadOps)
	}
}
