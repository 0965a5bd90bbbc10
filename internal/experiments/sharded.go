package experiments

import (
	"context"
	"time"

	"lsasg/internal/core"
	"lsasg/internal/shard"
	"lsasg/internal/stats"
	"lsasg/internal/workload"
)

// E18ShardedServing measures the partitioned serving subsystem: the key
// space splits across s independent self-adjusting skip graphs behind an
// epoch-stamped directory, each with its own engine and adjuster, and a
// skew-driven rebalancer migrates contiguous key ranges at deterministic
// window barriers. Reported per (trace, s) cell: wall-clock requests/sec
// through shard.Service.Serve (the s shards serve their share of a window
// side by side, so aggregate throughput scales with s on a multi-core
// machine), the cross-shard request fraction, the mean whole-request routing
// distance (legs + boundary intermediates + the inter-shard forwarding hop),
// the rebalancer's migration activity, and the max/mean shard-load ratio of
// the first vs last window — the skew the planner saw before acting vs what
// it left behind.
//
// The "req/s" column is a wall-clock measurement and
// exempt from dsgexp's byte-identical-CSV contract; every other column is
// deterministic for a fixed (seed, shards) pair — the golden test pins them.
//
// The hotshard trace concentrates traffic on the first eighth of the key
// space — one contiguous range, i.e. (a slice of) one shard — so the
// load-ratio columns show the rebalancer splitting the hot range across
// neighbours; on uniform traffic the planner correctly does nothing.
func E18ShardedServing(sc Scale) *stats.Table {
	t := stats.NewTable("E18 — sharded serving: throughput, cross-shard routing, skew rebalancing (req/s is wall-clock)",
		"trace", "s", "n", "requests", "req/s", "cross frac", "mean dist", "legs",
		"rebalances", "moved keys", "load ratio pre", "load ratio post")
	n := sc.Sizes[len(sc.Sizes)-1]
	m := sc.Requests
	shardCounts := sc.Shards
	if len(shardCounts) == 0 {
		shardCounts = []int{1, 2, 4}
	}
	window := m / 6
	if window < 1 {
		window = 1
	}
	traces := []struct {
		name string
		gen  workload.Generator
	}{
		{"uniform", workload.Uniform{Seed: sc.Seed}},
		{"zipf", workload.Zipf{Seed: sc.Seed, S: 1.2}},
		{"hotshard", workload.HotRange{Seed: sc.Seed + 1, LoFrac: 0, HiFrac: 0.125, Hot: 0.85}},
	}
	for _, tr := range traces {
		reqs := tr.gen.Generate(n, m)
		for _, s := range shardCounts {
			// An infeasible lane (shard.New requires ≥ 2 keys per
			// shard) fails the experiment loudly rather than vanishing from
			// the sweep.
			svc, err := shard.New(n, shard.Config{
				Shards:         s,
				A:              4,
				Seed:           sc.Seed,
				RebalanceEvery: window,
			})
			if err != nil {
				panic(err)
			}
			in := make(chan core.Op)
			go func() {
				defer close(in)
				for _, r := range reqs {
					in <- core.RouteOp(int64(r.Src), int64(r.Dst))
				}
			}()
			start := time.Now()
			st, err := svc.Serve(context.Background(), in)
			if err != nil {
				panic(err)
			}
			elapsed := time.Since(start)
			reqPerSec := float64(st.Requests) / elapsed.Seconds()
			crossFrac := float64(st.Cross) / float64(st.Requests)
			meanDist := float64(st.TotalRouteDistance) / float64(st.Requests)
			t.AddRow(tr.name, s, n, st.Requests, reqPerSec, crossFrac, meanDist, st.Legs,
				st.Rebalances, st.MovedKeys, st.LoadRatioFirst, st.LoadRatioLast)
		}
	}
	return t
}
