// KV data plane: every node index doubles as a key holding one versioned
// value, and point operations adjust the topology exactly like
// communication requests — a Get or Put of key k from origin o is the
// paper's access σ=(o,k). The tour: synchronous Get/Put/Delete/Scan on a
// single graph (puts of absent keys join, deletes leave), the same surface
// on the sharded service with boundary-spanning scans, and a YCSB-style
// mixed workload streamed through ServeOps.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"lsasg"
)

func main() {
	// --- Single graph: the synchronous surface. -------------------------
	nw, err := lsasg.New(64, lsasg.WithSeed(42))
	if err != nil {
		log.Fatal(err)
	}

	ver, existed, _ := nw.Put(3, 29, []byte("hello"))
	fmt.Printf("put 29 from origin 3: version %d (existed=%v)\n", ver, existed)

	// The access adjusted the topology: 3 and 29 now share a direct link,
	// like any communicating pair.
	if linked, lvl := nw.DirectlyLinked(3, 29); linked {
		fmt.Printf("3 and 29 are directly linked at level %d after the access\n", lvl)
	}

	val, ver, found, _ := nw.Get(7, 29)
	fmt.Printf("get 29 from origin 7: %q v%d (found=%v)\n", val, ver, found)

	// Delete is a tracked leave; a put of the departed key re-joins it.
	existed, _ = nw.Delete(3, 29)
	fmt.Printf("delete 29: existed=%v\n", existed)
	_, existed, _ = nw.Put(5, 29, []byte("rejoined"))
	fmt.Printf("put 29 again: existed=%v (false: the put was a tracked join)\n", existed)

	for _, k := range []int{40, 35, 44} {
		nw.Put(0, k, []byte{byte('a' + k%26)})
	}
	kvs, _ := nw.Scan(0, 30, 8)
	fmt.Printf("scan from 30: %d entries, first key %d (sorted level-0 walk)\n\n",
		len(kvs), kvs[0].Key)

	// --- Sharded: same surface, scans stitch across shards. -------------
	const n, shards = 512, 8
	snw, err := lsasg.NewSharded(n, lsasg.WithShards(shards), lsasg.WithSeed(42))
	if err != nil {
		log.Fatal(err)
	}
	for k := 60; k < 70; k++ { // straddles the shard 0 / shard 1 boundary (64)
		snw.Put((k+1)%n, k, []byte(fmt.Sprintf("v%d", k)))
	}
	kvs, _ = snw.Scan(0, 60, 16)
	fmt.Printf("sharded scan from 60 over %d shards: %d entries, keys %d..%d (boundary-spanning, globally sorted)\n\n",
		snw.Shards(), len(kvs), kvs[0].Key, kvs[len(kvs)-1].Key)

	// --- A YCSB-style mix streamed through ServeOps. --------------------
	// serveMix takes the unified lsasg.Service interface, so the same
	// driver fronts the sharded service here and would front the single
	// graph (or the wire daemon's backing service) unchanged.
	stats, err := serveMix(snw, 8192)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("served %d ops across %d shards: %d gets (%.0f%% hit), %d puts (%d joins), %d deletes, %d scans (%.1f entries avg)\n",
		stats.Requests, stats.Shards,
		stats.Gets, 100*float64(stats.GetHits)/float64(stats.Gets),
		stats.Puts, stats.PutInserts, stats.Deletes,
		stats.Scans, float64(stats.ScannedEntries)/float64(stats.Scans))
	fmt.Printf("cross-shard accesses: %d; rebalancer moved %d keys in %d migrations\n",
		stats.CrossShardRequests, stats.MigratedKeys, stats.Rebalances)
}

// serveMix streams a zipf-skewed mix — 50% reads, 25% updates, 15% scans,
// 10% deletes-then-reinserts — through any lsasg.Service: the hot keys
// drift together exactly as hot communication pairs would.
func serveMix(svc lsasg.Service, total int) (lsasg.ServeStats, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	size := svc.N()
	ops := make(chan lsasg.Op)
	go func() {
		defer close(ops)
		rng := rand.New(rand.NewSource(7))
		zipf := rand.NewZipf(rng, 1.2, 1, uint64(size-1))
		key := func() int { return int(zipf.Uint64()) }
		for i := 0; i < total; i++ {
			var op lsasg.Op
			switch r := rng.Float64(); {
			case r < 0.50:
				op = lsasg.GetOp(rng.Intn(size), key())
			case r < 0.75:
				op = lsasg.PutOp(rng.Intn(size), key(), []byte(fmt.Sprintf("u%d", i)))
			case r < 0.90:
				op = lsasg.ScanOp(rng.Intn(size), key(), 1+rng.Intn(16))
			default:
				k := key()
				op = lsasg.DeleteOp(rng.Intn(size), k)
				if k == op.Src { // deleting the origin itself: make it an update
					op = lsasg.PutOp(op.Src, k, []byte("kept"))
				}
			}
			select {
			case ops <- op:
			case <-ctx.Done():
				return
			}
		}
	}()
	return svc.ServeOps(ctx, ops, nil)
}
