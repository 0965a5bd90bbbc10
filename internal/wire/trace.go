package wire

import (
	"fmt"
	"math/rand"

	"lsasg"
)

// ReplayTrace builds a seeded mixed workload over n keys that cannot fail
// mid-stream: routes, zipf-skewed point reads and writes,
// short scans, and — last — a tracked join and leave on each of the four
// reserved top keys, which nothing else touches. Replaying it through a
// fresh daemon reproduces an in-process ServeOps run column for column
// (see StatsColumns and docs/WIRE.md).
func ReplayTrace(n, length int, seed int64) []lsasg.Op {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.4, 1, uint64(n-5))
	key := func() int { return int(zipf.Uint64()) }
	pick := func(not int) int {
		for {
			if v := rng.Intn(n - 4); v != not {
				return v
			}
		}
	}
	var ops []lsasg.Op
	for i := 0; i < length; i++ {
		switch r := rng.Float64(); {
		case r < 0.40:
			d := key()
			ops = append(ops, lsasg.RouteOp(pick(d), d))
		case r < 0.65:
			ops = append(ops, lsasg.GetOp(rng.Intn(n-4), key()))
		case r < 0.90:
			ops = append(ops, lsasg.PutOp(rng.Intn(n-4), key(), []byte(fmt.Sprintf("v%d", i))))
		default:
			ops = append(ops, lsasg.ScanOp(rng.Intn(n-4), key(), 1+rng.Intn(8)))
		}
	}
	for k := n - 4; k < n; k++ {
		ops = append(ops, lsasg.PutOp(0, k, []byte("reserved")))
	}
	for k := n - 4; k < n; k++ {
		ops = append(ops, lsasg.DeleteOp(0, k))
	}
	return ops
}

// StatsColumns renders every Stats field, in declaration order, as one CSV
// line — the byte-comparison format of the wire-replay determinism contract.
func StatsColumns(st lsasg.Stats) string {
	return fmt.Sprintf("%d,%.6f,%d,%d,%.6f,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d",
		st.Requests, st.MeanRouteDistance, st.MaxRouteDistance,
		st.TotalTransformRounds, st.WorkingSetBound, st.Height, st.DummyCount,
		st.Rebalances, st.MigratedKeys, st.Shards, st.CrossShardRequests,
		st.Gets, st.GetHits, st.Puts, st.PutInserts, st.Deletes, st.DeleteHits,
		st.Scans, st.ScannedEntries)
}
