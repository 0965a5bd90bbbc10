// Package serve is the serving engine of one graph: it takes communication
// requests one at a time and serves each in two halves on the live graph —
// route it, then apply its self-adjusting transformation (and the scoped
// a-balance repair behind it).
//
// That is the paper's serving model (§III), which is sequential per
// request: standard skip-graph routing first (Appendix B, a pure read of
// the topology), then the transformation (§IV-C–F), which mutates it. So a
// request routes in the topology every earlier request left, and its own
// adjustment is in place before the next one routes. A route is ≈ 10³×
// cheaper than the adjustment it triggers, so there is nothing to win by
// routing several requests on one state before adjusting them, or by fanning
// routes over workers — ROADMAP R3 measured both and they are gone. What
// concurrency the serving stack has lives one layer up: shard.Service runs
// the engines of different shards side by side.
//
// Engine.Serve takes the requests from a channel, Engine.ServeSlice from a
// slice — the sharded dispatcher's leg slices, a synchronous op's one-op
// slice; both run the same step per request, and every statistic is a pure
// function of the request sequence. Nothing is ever dropped. KV ops ride the
// same step: Get and Scan read in the route half, Put and Delete mutate in
// the adjust half. A route whose endpoint a Delete removed (or a crash took)
// earlier in the stream is a per-op miss — counted, no path sample, no
// adjustment — never a failed run. Between serving calls the Apply*Idle
// entry points mutate the idle engine synchronously (one crash injection,
// or one shard-migration batch).
//
// Nothing outside the engine may read the graph while a serving call runs:
// the adjust halves mutate it in place. Readers on other goroutines would
// need their own synchronisation or their own copy; none exists today.
//
// # Stable stat names
//
// Joins and leaves driven by shard migration (ApplyMigrationBatch) are
// counted by the sharded service and surface in the public lsasg stats as
// lsasg.Stats.Rebalances (planner runs that migrated a range) and
// lsasg.Stats.MigratedKeys (keys moved across shards); both names are part
// of the compatibility surface.
package serve
