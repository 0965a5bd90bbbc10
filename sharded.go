package lsasg

import (
	"context"
	"fmt"

	"lsasg/internal/obs"
	"lsasg/internal/shard"
	"lsasg/internal/workingset"
)

// ShardedNetwork is a partitioned self-adjusting skip-graph service: the key
// space 0..n-1 splits across WithShards contiguous ranges, each an
// independent DSG with its own serving engine and adjuster, behind an
// epoch-stamped shard directory. Intra-shard requests are served exactly
// like Network.Serve at size n/S; cross-shard requests route
// source→boundary and boundary→destination in their respective shards plus
// one directory-addressed forwarding hop, so the worst case stays bounded by
// 2·a·H(n/S) + 1: every leg keeps the per-shard a·H(n/S) bound, and the
// total stays O(log n) — within a factor 2 of the single-graph a·H(n)
// guarantee, and below it once S ≥ √n. A skew-driven rebalancer migrates
// contiguous key ranges between adjacent shards when per-shard load skews
// past a threshold.
//
// A ShardedNetwork reuses the Pair/Serve/Stats surface of Network. Like
// Network, its methods must not be called concurrently — all concurrency
// lives inside the service.
type ShardedNetwork struct {
	svc    *shard.Service
	ws     *workingset.Bound
	n      int
	tracer *obs.Tracer

	requests           int64
	crossShard         int64
	totalRouteDistance int64
	totalTransform     int64
	maxLegDistance     int

	// onOutcome is the per-ServeOps result callback; the service's
	// OnOutcome hook (fixed at construction) forwards through it.
	onOutcome func(o shard.Outcome)
}

// NewSharded creates a sharded network over n ≥ 2·shards nodes. It honours
// the same options as New where they apply (WithShards, WithBalance,
// WithSeed, WithParallelism, WithBatchSize, WithoutWorkingSetTracking); the
// shard count defaults to 4.
func NewSharded(n int, opts ...Option) (*ShardedNetwork, error) {
	o := options{balance: 4, seed: 1, trackWorkingSet: true, shards: 4}
	for _, opt := range opts {
		opt(&o)
	}
	if o.shards < 1 {
		return nil, fmt.Errorf("lsasg: need at least 1 shard, got %d", o.shards)
	}
	nw := &ShardedNetwork{n: n}
	if o.trace {
		nw.tracer = obs.NewTracer()
	}
	if o.trackWorkingSet {
		nw.ws = workingset.NewBound(n)
	}
	svc, err := shard.New(n, shard.Config{
		Shards:         o.shards,
		A:              o.balance,
		Seed:           o.seed,
		Parallelism:    o.parallelism,
		BatchSize:      o.batchSize,
		RebalanceEvery: o.rebalanceWindow,
		OnRequest: func(src, dst int64, cross bool) {
			// Sequence-order bookkeeping, mirroring Network.Serve's. KV ops
			// may be self-accesses (src == dst), which the bound tracker
			// has no use for.
			if nw.ws != nil && src != dst {
				nw.ws.Add(int(src), int(dst))
			}
			nw.requests++
			if cross {
				nw.crossShard++
			}
		},
		OnOutcome: func(o shard.Outcome) {
			if nw.onOutcome != nil {
				nw.onOutcome(o)
			}
		},
		Tracer: nw.tracer,
	})
	if err != nil {
		return nil, err
	}
	nw.svc = svc
	return nw, nil
}

// N returns the number of nodes.
func (nw *ShardedNetwork) N() int { return nw.n }

// Tracer returns the observability tracer when the network was built with
// WithTracing, nil otherwise.
func (nw *ShardedNetwork) Tracer() *obs.Tracer { return nw.tracer }

// Shards returns the shard count.
func (nw *ShardedNetwork) Shards() int { return nw.svc.Shards() }

// DirectoryEpoch returns the current shard-directory epoch: 0 at
// construction, +1 per rebalancer migration.
func (nw *ShardedNetwork) DirectoryEpoch() int64 { return nw.svc.Directory().Epoch() }

// Height returns the tallest shard topology.
func (nw *ShardedNetwork) Height() int { return nw.svc.Height() }

// DummyCount sums the dummy populations of all shards.
func (nw *ShardedNetwork) DummyCount() int { return nw.svc.DummyCount() }

// Serve consumes communication requests from the channel until it closes (or
// ctx is cancelled) and serves them through the sharded deterministic
// pipeline: a dispatcher splits each request into per-shard legs feeding S
// concurrent engine pipelines (each with WithParallelism routing workers and
// its own adjuster), and after every load window the rebalancer may migrate
// one contiguous key range between adjacent shards at an engine-idle
// barrier. For a fixed seed, shard count, and request sequence, every
// statistic — including the rebalancing decisions — is deterministic.
//
// The producer contract is the same as Network.Serve: pair every send with
// the same ctx and cancel it once Serve returns.
//
// Serve is exactly ServeOps over a pure-route stream.
func (nw *ShardedNetwork) Serve(ctx context.Context, reqs <-chan Pair) (ServeStats, error) {
	return forwardPairs(ctx, reqs, nw.ServeOps)
}

// serveStatsFrom folds one sharded run's statistics into the public shape
// and advances the network's cumulative counters.
func (nw *ShardedNetwork) serveStatsFrom(st shard.ServeStats) ServeStats {
	nw.totalRouteDistance += st.TotalRouteDistance
	nw.totalTransform += st.TotalTransformRounds
	if int(st.MaxLegDistance) > nw.maxLegDistance {
		nw.maxLegDistance = int(st.MaxLegDistance)
	}
	out := ServeStats{
		Requests:             st.Requests,
		Batches:              st.Batches,
		MaxRouteDistance:     int(st.MaxLegDistance),
		TotalTransformRounds: st.TotalTransformRounds,
		MaxAdjustLag:         st.MaxAdjustLag,
		Height:               st.Height,
		DummyCount:           st.DummyCount,
		Shards:               nw.svc.Shards(),
		CrossShardRequests:   st.Cross,
		Rebalances:           st.Rebalances,
		MigratedKeys:         st.MovedKeys,
		Gets:                 st.Gets,
		GetHits:              st.GetHits,
		Puts:                 st.Puts,
		PutInserts:           st.PutInserts,
		Deletes:              st.Deletes,
		DeleteHits:           st.DeleteHits,
		Scans:                st.Scans,
		ScannedEntries:       st.ScannedEntries,
	}
	if st.Requests > 0 {
		out.MeanRouteDistance = float64(st.TotalRouteDistance) / float64(st.Requests)
	}
	if st.Legs > 0 {
		out.MeanAdjustLag = float64(st.TotalAdjustLag) / float64(st.Legs)
	}
	return out
}

// Stats returns aggregate statistics for the requests served so far, with
// the sharded counters (Rebalances, MigratedKeys) filled in.
func (nw *ShardedNetwork) Stats() Stats {
	s := Stats{
		Requests:             int(nw.requests),
		MaxRouteDistance:     nw.maxLegDistance,
		TotalTransformRounds: nw.totalTransform,
		Height:               nw.svc.Height(),
		DummyCount:           nw.svc.DummyCount(),
		Rebalances:           nw.svc.Rebalances(),
		MigratedKeys:         nw.svc.MigratedKeys(),
	}
	if nw.requests > 0 {
		s.MeanRouteDistance = float64(nw.totalRouteDistance) / float64(nw.requests)
	}
	if nw.ws != nil {
		s.WorkingSetBound = nw.ws.Total()
	}
	return s
}

// Verify checks all structural invariants of every shard's topology.
func (nw *ShardedNetwork) Verify() error { return nw.svc.Verify() }

// Crash injects a crash failure: the node fails in place on whichever shard
// the current directory assigns it, with dangling neighbour references until
// a repair splices it out. Must not run concurrently with a Serve call.
func (nw *ShardedNetwork) Crash(idx int) error {
	if err := checkIndex(idx, nw.n); err != nil {
		return err
	}
	return wrapErr(nw.svc.Crash(int64(idx)))
}
