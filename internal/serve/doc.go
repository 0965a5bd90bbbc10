// Package serve is the concurrent serving engine: it routes many
// communication requests in parallel against an immutable topology snapshot
// while a single adjuster goroutine applies the self-adjusting
// transformations (and their scoped a-balance repairs) in batches,
// publishing a fresh snapshot after every batch.
//
// The split exploits the two halves of the paper's serving model: routing is
// a pure read of the topology (Appendix B), while the transformation
// (§IV-C–F) mutates it. Readers therefore scale across cores against an
// epoch-stamped immutable replica (skipgraph.Replica), and all mutation
// stays serialized in one goroutine, preserving the sequential semantics of
// the transformation — including its seeded randomness — no matter how many
// routing workers run.
//
// Snapshots are copy-on-write, not deep copies: the graph's mutation paths
// record which nodes a batch touched, and publish (skipgraph.Publisher)
// freezes fresh immutable versions of exactly those nodes, structurally
// sharing everything else with the previous epoch. What is copied per epoch:
// the touched nodes' link/liveness records and the trie path to each
// touched slot. What is shared: every untouched node's frozen record and
// every untouched trie subtree. Readers are safe because published versions
// are never written again — the publisher path-copies before every write —
// so publication costs O(lists touched) per batch instead of O(n), matching
// the locality the paper proves for adjustment work. The old deep copy
// (skipgraph.Graph.Clone) survives as the test oracle the replica is pinned
// against.
//
// Engine.Serve is the one serving path: requests are consumed in batches of
// BatchSize; each batch is routed in parallel against the snapshot
// published after the previous batch while the adjuster concurrently
// applies the batch's transformations in sequence order to the live graph.
// Every request is routed and then adjusted — the paper's model, nothing is
// ever dropped — and every statistic is a pure function of the request
// sequence and the batch schedule, byte-identical across Parallelism
// settings. Between Serve calls the Apply*Idle entry points mutate the idle
// engine synchronously (one op, one crash injection, or one shard-migration
// batch), each publishing before it returns.
//
// Requests routed against a snapshot see a topology that lags the live graph
// by at most one batch. The lag delays the working-set adaptation but never
// breaks correctness: every snapshot is a complete, valid skip graph, so any
// routing in it stays within its a·H worst case.
//
// # Stable stat names
//
// Joins and leaves driven by shard migration (ApplyMigrationBatch) are
// counted by the sharded service and surface in the public lsasg stats as
// lsasg.Stats.Rebalances (planner runs that migrated a range) and
// lsasg.Stats.MigratedKeys (keys moved across shards); both names are part
// of the compatibility surface.
package serve
