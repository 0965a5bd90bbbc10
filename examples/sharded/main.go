// Sharded serving: partition the key space across independent
// self-adjusting skip graphs behind an epoch-stamped shard directory.
// Intra-shard requests are the paper's model at size n/S; cross-shard
// requests route source→boundary, boundary→destination plus one forwarding
// hop; and a skew-driven rebalancer migrates contiguous key ranges when one
// shard runs hot — here provoked deliberately with a hot-range trace.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"lsasg"
)

func main() {
	const (
		n      = 512
		shards = 8
	)
	nw, err := lsasg.NewSharded(n, lsasg.WithShards(shards), lsasg.WithSeed(42))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d keys over %d shards (directory epoch %d)\n",
		nw.N(), nw.Shards(), nw.DirectoryEpoch())

	// 85% of the traffic hammers the first sixteenth of the key space — a
	// contiguous range inside shard 0, the worst case for a range-sharded
	// directory and exactly what the rebalancer exists for.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reqs := make(chan lsasg.Op)
	go func() {
		defer close(reqs)
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 8192; i++ {
			var p lsasg.Op
			if rng.Float64() < 0.85 {
				p = lsasg.RouteOp(rng.Intn(n/16), rng.Intn(n/16))
			} else {
				p = lsasg.RouteOp(rng.Intn(n), rng.Intn(n))
			}
			if p.Src == p.Dst {
				continue
			}
			select {
			case reqs <- p:
			case <-ctx.Done():
				return
			}
		}
	}()

	stats, err := nw.ServeOps(ctx, reqs, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("served %d requests: %d intra-shard, %d cross-shard (%.0f%%)\n",
		stats.Requests, stats.Requests-stats.CrossShardRequests, stats.CrossShardRequests,
		100*float64(stats.CrossShardRequests)/float64(stats.Requests))
	fmt.Printf("mean route distance %.2f (legs + boundary hops), max leg %d\n",
		stats.MeanRouteDistance, stats.MaxRouteDistance)
	fmt.Printf("rebalancer: %d migrations moved %d keys; directory now at epoch %d\n",
		stats.Rebalances, stats.MigratedKeys, nw.DirectoryEpoch())

	st := nw.Stats()
	fmt.Printf("lifetime stats: %d requests, WS bound %.0f\n", st.Requests, st.WorkingSetBound)
}
