package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"lsasg/internal/core"
	"lsasg/internal/testkit"
	"lsasg/internal/workload"
)

// TestShardedStress is the race-detector stress for windows of many ops:
// four shards serve their slices of each window side by side, each routing
// and adjusting its own live graph, while a hot-range trace keeps the
// planner swapping directory epochs and migrating key ranges at short
// window barriers. CI runs it with -race on every PR alongside
// TestServeStress.
func TestShardedStress(t *testing.T) {
	const n = 96
	svc, err := New(n, Config{Shards: 4, Seed: 42, RebalanceEvery: 40})
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

// TestShardedStressApply is the race-detector stress for one-op windows,
// whose answers leave before their adjustments: a model-checked loop of
// Apply at S = 4 over a hot range, with crashes, removals, joins and every
// settling read — Totals, Height, DummyCount, Verify — and Peek between ops,
// and a load window short enough that migrations keep settling every shard.
// Each of them must find every shard's adjustment either settled or waited
// for, and the answers must be the model's.
func TestShardedStressApply(t *testing.T) {
	const steps = 1500
	svc, err := New(96, Config{Shards: 4, Seed: 42, RebalanceEvery: 12})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	m, next := kvModel{testkit.NewKV(svc.N())}, int64(svc.N())
	// hot draws a key, four times in five from the bottom fifth of the space.
	hot := func() int64 {
		n := svc.N()
		if rng.Intn(5) > 0 {
			n /= 5
		}
		return int64(rng.Intn(n))
	}
	spare := func(k int64) bool {
		lo, hi := svc.Directory().Range(svc.Directory().ShardOf(k))
		return m.Present(k) && m.liveIn(lo, hi) > 3
	}
	var crashes, removals, joins, reads int
	for step := 0; step < steps; step++ {
		src, k := hot(), hot()
		var op core.Op
		switch r := rng.Intn(40); {
		case r == 0 || r == 1:
			if !spare(k) {
				continue
			}
			if r == 0 {
				err = svc.Crash(k)
				crashes++
			} else {
				err = svc.RemoveNode(k)
				removals++
			}
			if err != nil {
				t.Fatalf("step %d: retiring %d: %v", step, k, err)
			}
			m.Retire(k, r == 0)
			continue
		case r == 2:
			id, err := svc.AddNode()
			if err != nil {
				t.Fatalf("step %d: AddNode: %v", step, err)
			}
			if id != next {
				t.Fatalf("step %d: AddNode joined %d, want %d", step, id, next)
			}
			m.Join(id)
			next++
			joins++
			continue
		case r == 3:
			// Once a settling read has run, the unsettled books are exact.
			tot := svc.Totals()
			peek := svc.Peek()
			if peek != tot || peek.Height != svc.Height() || peek.DummyCount != svc.DummyCount() {
				t.Fatalf("step %d: unsettled books %+v, settled books %+v, height %d, dummies %d",
					step, peek, tot, svc.Height(), svc.DummyCount())
			}
			if err := svc.Verify(); err != nil {
				t.Fatalf("step %d: Verify: %v", step, err)
			}
			reads++
			continue
		case r < 14:
			if src == k {
				continue
			}
			op = core.RouteOp(src, k)
		case r < 24:
			op = core.Op{Kind: core.OpPut, Src: src, Dst: k, Value: []byte(fmt.Sprintf("v%d.%d", k, step))}
		case r < 32:
			op = core.Op{Kind: core.OpGet, Src: src, Dst: k}
		case r < 36:
			op = core.Op{Kind: core.OpScan, Src: src, Dst: k, Limit: 1 + rng.Intn(8)}
		default:
			if !spare(k) {
				continue
			}
			op = core.Op{Kind: core.OpDelete, Src: src, Dst: k}
		}
		o, err := svc.Apply(op)
		if errors.Is(err, ErrBarrier) {
			t.Fatalf("step %d: %v", step, err)
		}
		if bad := m.check(op, o, err); bad != "" {
			t.Fatalf("step %d: %s", step, bad)
		}
	}
	if svc.Totals().Rebalances == 0 || crashes == 0 || removals == 0 || joins == 0 || reads == 0 {
		t.Fatalf("the run saw %d migrations, %d crashes, %d removals, %d joins and %d reads; every one must happen",
			svc.Totals().Rebalances, crashes, removals, joins, reads)
	}
	checkLiveBook(t, svc, m, steps)
	for i, sl := range svc.shards {
		if err := sl.dsg.Validate(); err != nil {
			t.Fatalf("shard %d DSG invalid after stress: %v", i, err)
		}
	}
}
