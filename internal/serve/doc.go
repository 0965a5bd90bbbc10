// Package serve is the serving engine: it takes communication requests in
// batches and serves each batch in two phases on the live graph — route
// every request of the batch, then apply the batch's self-adjusting
// transformations (and their scoped a-balance repairs) in request order.
//
// The split follows the paper's serving model, which is sequential per
// request: standard skip-graph routing first (Appendix B, a pure read of
// the topology), then the transformation (§IV-C–F), which mutates it.
// Routing is the cheap half — microseconds against the milliseconds of an
// adjustment — so the engine does not overlap the two. Nothing mutates the
// graph during a route phase, which is all the routing workers need to read
// it in parallel without locks or copies; all mutation stays on the one
// goroutine that called Serve, preserving the sequential semantics of the
// transformation — including its seeded randomness — no matter how many
// routing workers run.
//
// Engine.Serve is the one serving path: requests are consumed in batches of
// BatchSize; each batch is routed by Parallelism workers (Get and Scan take
// their reads in the same phase) and then adjusted. Every request is routed
// and then adjusted — the paper's model, nothing is ever dropped — and every
// statistic is a pure function of the request sequence and the batch
// schedule, byte-identical across Parallelism settings. ServeSlice is the
// same batch step for a caller that already holds the ops — the sharded
// dispatcher's windows, a synchronous op's one-op window. Between serving
// calls the Apply*Idle entry points mutate the idle engine synchronously
// (one crash injection, or one shard-migration batch).
//
// A request therefore routes in the topology its batch found: it misses the
// adjustments of the requests ahead of it in the same batch (its AdjustLag)
// and sees every earlier batch's. The lag delays the working-set adaptation
// but never breaks correctness: between batches the graph is a complete,
// a-balanced skip graph, so any routing in it stays within its a·H worst
// case.
//
// Nothing outside the engine may read the graph while Serve runs: the
// adjust phases mutate it in place. Readers on other goroutines would need
// their own synchronisation or their own copy; none exists today, and
// TestServeStress keeps the race detector on the contract the engine's own
// workers rely on.
//
// # Stable stat names
//
// Joins and leaves driven by shard migration (ApplyMigrationBatch) are
// counted by the sharded service and surface in the public lsasg stats as
// lsasg.Stats.Rebalances (planner runs that migrated a range) and
// lsasg.Stats.MigratedKeys (keys moved across shards); both names are part
// of the compatibility surface.
package serve
