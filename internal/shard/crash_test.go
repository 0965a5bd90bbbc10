package shard

import (
	"context"
	"errors"
	"testing"

	"lsasg/internal/core"
	"lsasg/internal/skipgraph"
	"lsasg/internal/testkit"
)

// TestCrashDetectRepair drives the crash cycle through the sharded service:
// an injected crash lands on the owning shard's graph, a served route
// addressed at the corpse is recorded as a miss instead of aborting the
// pipeline, a Put of the key splices the corpse out and rejoins it, the
// removal of a crashed key repairs it too, and routing between live keys
// keeps working throughout.
func TestCrashDetectRepair(t *testing.T) {
	const n = 64
	svc, err := New(n, Config{Shards: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Crash(99); err == nil {
		t.Error("crash of out-of-range key accepted")
	}
	const victim = 12
	if err := svc.Crash(victim); err != nil {
		t.Fatalf("crash injection: %v", err)
	}
	sh := svc.Directory().ShardOf(victim)
	_, err = svc.shards[sh].dsg.Graph().RouteKeys(skipgraph.KeyOf(3), skipgraph.KeyOf(victim))
	var dre *skipgraph.DeadRouteError
	if !errors.As(err, &dre) || dre.Node.ID() != victim {
		t.Fatalf("probe of corpse: %v, want DeadRouteError on %d", err, victim)
	}
	// A stale probe at the corpse costs that op its path measurement, not
	// everyone's pipeline.
	st, err := svc.Serve(context.Background(), feedOps([]core.Op{core.RouteOp(3, victim), core.RouteOp(3, 14)}))
	if err != nil {
		t.Fatalf("serve across the corpse: %v", err)
	}
	if st.RouteMisses == 0 {
		t.Errorf("route into the corpse recorded no miss: %+v", st)
	}
	o, err := svc.Apply(core.Op{Kind: core.OpPut, Src: 3, Dst: victim, Value: []byte("back")})
	if err != nil || o.Existed {
		t.Fatalf("repairing put = %+v, %v; want a fresh join", o, err)
	}
	// Live traffic is unaffected after the repair, including the victim
	// itself, keys on its shard, and cross-shard pairs.
	st, err = svc.Serve(context.Background(), feedOps([]core.Op{
		core.RouteOp(3, victim), core.RouteOp(3, 14), core.RouteOp(3, 40), core.RouteOp(50, 9)}))
	if err != nil {
		t.Fatalf("serve after repair: %v", err)
	}
	if st.RouteMisses != 0 {
		t.Errorf("%d route misses after repair, want 0", st.RouteMisses)
	}
	// A crashed key cannot run the leave protocol: its removal is the crash
	// repair.
	_, _, before := svc.CrashStats()
	if err := svc.Crash(40); err != nil {
		t.Fatal(err)
	}
	if err := svc.RemoveNode(40); err != nil {
		t.Fatalf("remove of a crashed key: %v", err)
	}
	if _, _, after := svc.CrashStats(); after != before+1 {
		t.Errorf("%d crash repairs after removing a crashed key, want %d", after, before+1)
	}
	for i, sl := range svc.shards {
		if ids := testkit.DeadIDs(sl.dsg.Graph().All()); len(ids) != 0 {
			t.Errorf("shard %d still holds corpses %v", i, ids)
		}
		if err := sl.dsg.Validate(); err != nil {
			t.Fatalf("shard %d DSG invalid after crash cycle: %v", i, err)
		}
	}
}
