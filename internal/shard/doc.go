// Package shard is the serving subsystem: it splits the key space [0, n)
// across S ≥ 1 independent self-adjusting skip graphs, each with its own
// adjuster, behind an immutable, epoch-stamped shard directory that maps
// keys to shards. A single graph is the S = 1 case — same dispatch, same
// step, same statistics — not a second code path.
//
// # Partitioning model
//
// Shards own contiguous key ranges — the skip graph's membership-vector
// address space is ordered, so a contiguous split keeps every shard a valid
// skip graph over its own keys (Aspnes & Shah) and keeps the directory a
// plain sorted boundary array. Intra-shard requests go straight to that
// shard's step: routing, transformation, and the scoped a-balance repair
// all stay purely local to one shard, exactly the paper's model at size n/S.
//
// Cross-shard requests are directory-addressed two-leg routes: source →
// boundary inside the source shard, then boundary → destination inside the
// destination shard, plus one inter-shard forwarding hop (the directory
// lookup — O(1), like any partitioned key-value service). The boundary is
// the live key of the shard's range nearest the edge the request crosses —
// the dispatcher keeps the liveness book, since every Put, Delete, removal
// and crash passes through it — so losing an edge key costs the accesses
// addressed to that key, never the traffic across the edge. Each leg adjusts
// its own shard, so boundary nodes become working-set-hot and cross-shard
// legs get cheap over time; the per-leg worst case stays the per-shard
// a·H(n/S) bound, so a cross-shard request costs at most 2·a·H(n/S) + 1 —
// still O(log n), within a factor 2 of the paper's single-graph a·H(n)
// guarantee for any S, and at or below it once S ≥ √n (then H(n/S) ≤
// H(n)/2).
//
// # Rebalancing
//
// A skew-driven rebalancer watches per-shard load — routed leg endpoints per
// key over a fixed-size request window — and, when the max/mean shard load
// ratio crosses a threshold, migrates a contiguous key range from the
// hottest shard to its lighter adjacent neighbour at the window barrier,
// where every shard is settled. The split point is chosen by walking per-key
// load in from the edge being donated until half the load gap has moved.
// Migration is a tracked leave/join batch on the two shards' graphs,
// ordered so a key is always routable somewhere:
//
//  1. join the range into the destination shard,
//  2. publish a new directory epoch with the moved boundary,
//  3. leave the range from the source shard.
//
// Between (1) and (3) a key is briefly present in both shards, so every
// directory value names a shard that holds the key and a step that fails
// strands none. A crashed key still in the range is spliced out by (3) and
// joins nowhere: its record went with it.
//
// # Serving
//
// Each shard serves its legs with one step, the paper's serving model
// (§III), which is sequential per request: standard skip-graph routing first
// (Appendix B, a pure read of the topology; Get and Scan read here, Put and
// Delete write), then the transformation and the scoped a-balance repair
// behind it (§IV-C–G), which mutate it. So a leg routes in the topology every
// earlier leg on its shard left, and its own adjustment is in place before
// the next one routes. A route is ≈ 10³× cheaper than the adjustment it
// triggers, so there is nothing to win by routing several requests on one
// state before adjusting them, or by fanning routes over workers — ROADMAP
// R3 measured both and they are gone.
//
// One driver (serveWindow) serves a slice of ops as a window: a dispatcher
// splits them, in order, into per-shard leg slices, every busy shard runs
// the step over its slice, the outcomes are assembled in dispatch order,
// and the planner runs at the barrier that ends a load window. Every
// statistic, the rebalancing decisions included, is a pure function of the
// request sequence and configuration. A route leg whose endpoint a Delete
// removed earlier in the stream (or a crash took) costs that op its path
// sample — its Outcome carries the routing error — never the run.
//
// Service.Apply is that driver on one op; Service.Serve collects a window
// off a channel and calls it, so Serve returns what Apply in a loop returns.
// A leg touches its own shard's graph only, and that is the service's one
// source of concurrency — partitions, not parallel readers of one structure
// (cf. Thomas & Mendes in PAPERS.md) — in two forms. A window of many ops
// runs the busy shards' steps side by side. A one-op window on S > 1
// shards answers once its legs are routed, and each shard it touched
// finishes its adjustment behind the answer, so a client's next op routes on
// another shard meanwhile; every call that reads a shard's graph or the books
// — its next leg, the barrier, Crash, AddNode, RemoveNode, Totals, Height,
// DummyCount, Verify, Distance, DirectlyLinked, RenderTopology — settles that
// shard first, and a failure behind an answer comes back from it as
// ErrBarrier. One shard adjusts inline: nothing could overlap it. AddNode,
// RemoveNode and Crash are directory operations between calls: like a
// second Serve or Apply, they fail while a Serve or Apply is in flight.
package shard
