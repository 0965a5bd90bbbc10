package experiments

import (
	"context"
	"encoding/binary"
	"time"

	"lsasg/internal/core"
	"lsasg/internal/shard"
	"lsasg/internal/stats"
	"lsasg/internal/workload"
)

// E19KVWorkload measures the KV data plane end to end: YCSB-style operation
// mixes (reads, updates, insert-joins, deletes, range scans) generated by
// workload.KVMix over Zipf-skewed key popularity, served through
// shard.Service.Serve. Point reads and writes are accesses that adjust
// the topology like routes (a put of an absent key is a tracked join, a
// delete a tracked leave), while scans read the level-0 run without
// adjusting and stitch across shard boundaries once their window has been
// served. Reported per (mix, s) cell: wall-clock requests/sec, the get hit
// and delete hit rates, the put-insert count (tracked joins triggered by
// writes), the entries returned per scan, the cross-shard fraction, the
// mean routing distance over point operations, and the rebalancer's
// migration activity. Every op observes every earlier op of the stream, so
// the data outcomes — hit rates, put inserts, scan lengths — are exact and
// shard-count-invariant, which is also the migration value-survival check:
// a put-join migrated mid-run still counts once.
//
// Per the E18 convention, the "req/s" column is a wall-clock
// measurement and exempt from dsgexp's byte-identical-CSV contract; every
// other column is deterministic for a fixed (seed, mix, shards) triple —
// the golden test pins them.
func E19KVWorkload(sc Scale) *stats.Table {
	t := stats.NewTable("E19 — KV workload: YCSB-style mixes over the sharded data plane (req/s is wall-clock)",
		"mix", "s", "n", "ops", "req/s", "get hit", "del hit", "put inserts",
		"scan avg", "cross frac", "mean dist", "rebalances", "moved keys")
	n := sc.Sizes[len(sc.Sizes)-1]
	m := sc.Requests
	shardCounts := sc.Shards
	if len(shardCounts) == 0 {
		shardCounts = []int{1, 2, 4}
	}
	mixNames := sc.Mixes
	if len(mixNames) == 0 {
		mixNames = []string{"a", "b", "e"}
	}
	window := m / 6
	if window < 1 {
		window = 1
	}
	for _, name := range mixNames {
		mix, err := workload.ParseMix(name)
		if err != nil {
			panic(err)
		}
		gen := workload.KVMix{Seed: sc.Seed, Mix: mix,
			Base: workload.Zipf{Seed: sc.Seed, S: 1.2}}
		tr, err := gen.Trace(n, m)
		if err != nil {
			panic(err)
		}
		if err := tr.Validate(n); err != nil {
			panic(err)
		}
		ops := kvOps(tr)
		for _, s := range shardCounts {
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
				for _, op := range ops {
					in <- op
				}
			}()
			start := time.Now()
			st, err := svc.Serve(context.Background(), in)
			if err != nil {
				panic(err)
			}
			elapsed := time.Since(start)
			t.AddRow(name, s, n, st.Requests,
				float64(st.Requests)/elapsed.Seconds(),
				ratio(st.GetHits, st.Gets),
				ratio(st.DeleteHits, st.Deletes),
				st.PutInserts,
				ratio(st.ScannedEntries, st.Scans),
				ratio(st.Cross, st.Requests),
				ratio(st.TotalRouteDistance, st.Requests),
				st.Rebalances, st.MovedKeys)
		}
	}
	return t
}

// ratio is a zero-guarded division for rate columns.
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// kvOps lowers a KV trace to op envelopes. Put values are synthesized
// deterministically from (key, sequence) — 16 bytes each, the fixed record
// size of the sweep.
func kvOps(tr workload.Trace) []core.Op {
	ops := make([]core.Op, len(tr))
	for i, e := range tr {
		switch e.Op {
		case workload.OpRoute:
			ops[i] = core.RouteOp(e.Src, e.Dst)
		case workload.OpGet:
			ops[i] = core.Op{Kind: core.OpGet, Src: e.Src, Dst: e.Dst}
		case workload.OpPut:
			v := make([]byte, 16)
			binary.BigEndian.PutUint64(v, uint64(e.Dst))
			binary.BigEndian.PutUint64(v[8:], uint64(i))
			ops[i] = core.Op{Kind: core.OpPut, Src: e.Src, Dst: e.Dst, Value: v}
		case workload.OpDelete:
			ops[i] = core.Op{Kind: core.OpDelete, Src: e.Src, Dst: e.Dst}
		case workload.OpScan:
			ops[i] = core.Op{Kind: core.OpScan, Dst: e.Dst, Limit: e.Limit}
		default:
			panic("experiments: membership event in a KV trace: " + e.String())
		}
	}
	return ops
}
