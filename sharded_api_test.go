package lsasg

import (
	"encoding/json"
	"testing"
)

// hotShardTrace concentrates most requests on keys [0, 8) of a 64-key
// space — shard 0 of the default 4-shard split.
func hotShardTrace(m int) []Op {
	reqs := make([]Op, 0, m)
	for i := 0; len(reqs) < m; i++ {
		if i%10 < 8 {
			a, b := i%8, (i+1+i/10)%8
			if a == b {
				b = (b + 1) % 8
			}
			reqs = append(reqs, RouteOp(a, b))
		} else {
			a, b := i%64, (i*7+13)%64
			if a == b {
				b = (b + 1) % 64
			}
			reqs = append(reqs, RouteOp(a, b))
		}
	}
	return reqs
}

// TestShardedServeDeterministic: a sharded ServeOps run is deterministic
// across runs although the shards are scheduled side by side, and
// the sharded stat fields are populated.
func TestShardedServeDeterministic(t *testing.T) {
	run := func() Stats {
		nw, err := NewSharded(64, WithShards(4), WithSeed(5))
		if err != nil {
			t.Fatal(err)
		}
		return serveAll(t, nw, hotShardTrace(600))
	}
	base := run()
	baseJSON, _ := json.Marshal(base)
	for i := 0; i < 2; i++ {
		gotJSON, _ := json.Marshal(run())
		if string(gotJSON) != string(baseJSON) {
			t.Errorf("sharded stats diverge across runs:\n %s\n %s", baseJSON, gotJSON)
		}
	}
	if base.Requests != 600 || base.Shards != 4 {
		t.Errorf("served %d requests over %d shards", base.Requests, base.Shards)
	}
	if base.CrossShardRequests == 0 {
		t.Error("trace produced no cross-shard requests")
	}
	if base.Height <= 0 || base.MeanRouteDistance <= 0 {
		t.Errorf("degenerate topology stats: %+v", base)
	}
}

// TestShardedStatsPlumbing: rebalance-migration counts flow into Stats()
// under their stable field names, and the working-set bound tracks the
// dispatch order.
func TestShardedStatsPlumbing(t *testing.T) {
	nw, err := NewSharded(64, WithShards(4), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	serveStats := serveAll(t, nw, hotShardTrace(2000))
	if serveStats.Rebalances == 0 || serveStats.MigratedKeys == 0 {
		t.Fatalf("hot-shard trace triggered no rebalance: %+v", serveStats)
	}
	st := nw.Stats()
	if st.Requests != 2000 {
		t.Errorf("Stats.Requests = %d, want 2000", st.Requests)
	}
	if st != serveStats {
		t.Errorf("Stats() after the first run differs from the run's books:\n life %+v\n run  %+v", st, serveStats)
	}
	if st.WorkingSetBound <= 0 {
		t.Error("working-set bound not tracked")
	}
	if nw.DirectoryEpoch() != serveStats.Rebalances {
		t.Errorf("directory epoch %d, want %d", nw.DirectoryEpoch(), serveStats.Rebalances)
	}
	// A plain Network keeps the sharded counters at their zero values.
	plain, err := New(16, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Request(1, 9); err != nil {
		t.Fatal(err)
	}
	ps := plain.Stats()
	if ps.Rebalances != 0 || ps.MigratedKeys != 0 {
		t.Errorf("unsharded network reports sharded activity: %+v", ps)
	}
}

// TestNewShardedValidation: option and size validation.
func TestNewShardedValidation(t *testing.T) {
	if _, err := NewSharded(4, WithShards(4)); err == nil {
		t.Error("4 keys over 4 shards must fail (needs ≥ 2 per shard)")
	}
	if _, err := NewSharded(64, WithShards(0)); err == nil {
		t.Error("WithShards(0) must fail")
	}
	nw, err := NewSharded(64)
	if err != nil {
		t.Fatal(err)
	}
	if nw.Shards() != 4 {
		t.Errorf("default shard count %d, want 4", nw.Shards())
	}
}
