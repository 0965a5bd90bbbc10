package shard

import (
	"context"
	"math/rand"
	"testing"

	"lsasg/internal/workload"
)

// TestShardedStress is the race-detector stress for the sharded path: four
// shard pipelines run side by side, each with four routing workers reading
// its live graph during route phases and mutating it in the adjust phases
// between, while a hot-range trace keeps the planner swapping directory
// epochs and migrating key ranges at short window barriers. CI runs this
// with -race on every PR alongside the serve-engine stress.
func TestShardedStress(t *testing.T) {
	const n = 96
	svc, err := New(n, Config{Shards: 4, Seed: 42,
		RebalanceEvery: 40, SkewThreshold: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	// Skewed traffic keeps the planner migrating while workers route.
	reqs := workload.HotRange{Seed: 300, LoFrac: 0, HiFrac: 0.2, Hot: 0.8}.Generate(n, 800)

	st, err := svc.Serve(context.Background(), feed(reqs))
	if err != nil {
		t.Fatal(err)
	}

	if st.Requests != int64(len(reqs)) || st.Intra+st.Cross != st.Requests {
		t.Errorf("route books don't balance: %+v", st)
	}
	if st.Rebalances == 0 || st.MovedKeys == 0 {
		t.Fatalf("hot-range trace triggered no migration: %+v", st)
	}
	if tot := svc.Totals(); tot.Rebalances != st.Rebalances || tot.MovedKeys != st.MovedKeys || tot.Requests != st.Requests {
		t.Errorf("lifetime books %+v disagree with the one run's (%d rebalances, %d moved keys, %d requests)",
			tot, st.Rebalances, st.MovedKeys, st.Requests)
	}
	for i, sl := range svc.shards {
		if err := sl.dsg.Validate(); err != nil {
			t.Fatalf("shard %d DSG invalid after stress: %v", i, err)
		}
	}
	// The final directory + graphs route the whole key space.
	dir := svc.Directory()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		u, v := int64(rng.Intn(n)), int64(rng.Intn(n))
		if u == v {
			continue
		}
		if err := routeLegs(svc, dir, u, v); err != nil {
			t.Fatalf("final route %d→%d: %v", u, v, err)
		}
	}
	// Every key has exactly one owner, and it is the directory's.
	for k := int64(0); k < n; k++ {
		owner := dir.ShardOf(k)
		for i, sl := range svc.shards {
			if (sl.dsg.NodeByID(k) != nil) != (i == owner) {
				t.Fatalf("key %d: shard %d presence disagrees with owner %d", k, i, owner)
			}
		}
	}
}
