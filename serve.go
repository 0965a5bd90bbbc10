package lsasg

import (
	"context"

	"lsasg/internal/shard"
)

// Pair is one communication request between two node indices, the unit
// Serve consumes.
type Pair struct {
	Src, Dst int
}

// ServeStats aggregates one Serve run. Every field is deterministic for a
// fixed seed and batch schedule — byte-identical across parallelism
// settings.
type ServeStats struct {
	// Requests is the number of requests served.
	Requests int64
	// Batches is the number of route-then-adjust batches served.
	Batches int64
	// MeanRouteDistance is the mean d_S(σ) measured in the topology each
	// request's batch found.
	MeanRouteDistance float64
	// MaxRouteDistance is the worst routing distance observed. For
	// a sharded run this is the worst single LEG (the legs of one
	// cross-shard request are served by different shards' engines, so
	// whole-request maxima are not tracked) while MeanRouteDistance spans
	// whole requests — with heavily cross-shard traffic the max can
	// therefore legitimately sit below the mean.
	MaxRouteDistance int
	// TotalTransformRounds sums ρ over all applied adjustments.
	TotalTransformRounds int64
	// MeanAdjustLag is the mean number of adjustments pending (own included)
	// when a leg was routed: a batch routes whole before any of it adjusts,
	// so the lag averages (BatchSize+1)/2 on full batches.
	MeanAdjustLag float64
	// MaxAdjustLag is the worst such lag (at most BatchSize).
	MaxAdjustLag int
	// Height and DummyCount describe the live topology after the run.
	Height     int
	DummyCount int

	// Shards is the partition count the run served across: 1 for an
	// unsharded Network, whose other sharding fields below stay zero.
	Shards int
	// CrossShardRequests counts requests whose endpoints resolved to
	// different shards and were routed source→boundary, boundary→destination.
	CrossShardRequests int64
	// Rebalances and MigratedKeys report the skew-driven rebalancer's
	// activity during the run (window-barrier migrations).
	Rebalances   int64
	MigratedKeys int64

	// The KV fields below stay zero for pure-route runs; ServeOps fills
	// them. Counts are at request granularity (a cross-shard scan is one
	// Scan regardless of how many shards it fanned over).
	Gets           int64
	GetHits        int64 // gets that found a value
	Puts           int64
	PutInserts     int64 // puts that joined a new key (vs updated in place)
	Deletes        int64
	DeleteHits     int64 // deletes that removed something
	Scans          int64
	ScannedEntries int64 // entries returned across all scans
}

// serveStats folds one pipeline run into the public shape — the single
// assembly point behind Serve and ServeOps.
func (nw *Network) serveStats(st shard.ServeStats) ServeStats {
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

// Serve consumes communication requests from the channel until it closes (or
// ctx is cancelled) and serves them through the deterministic pipeline: each
// batch of WithBatchSize requests is first routed — WithParallelism workers
// reading the topology, which nothing mutates meanwhile — and then adjusted,
// the self-adjusting transformations applied in request order. On a sharded
// network a dispatcher splits each request into per-shard legs, the shards
// serve their legs side by side, and after every load window the rebalancer
// may migrate one contiguous key range between adjacent shards.
//
// Requests therefore observe a topology that lags their own batch's
// adjustments (see ServeStats.MeanAdjustLag): routing distances are measured
// before the batch adjusts, and the adjust phase then advances the topology
// request by request — each transformation followed by its scoped a-balance
// repair, like core.RunTrace and like Request. The working-set bookkeeping
// backing Stats advances in exact request order. For a fixed seed, shard
// count and batch schedule every statistic — the rebalancing decisions
// included — is deterministic, independent of parallelism and of producer
// timing.
//
// Serve must not run concurrently with other Network methods; all other
// concurrency lives inside the pipeline. On an invalid request (index out of
// range, self-communication) Serve aborts with an error after finishing the
// batches already in flight.
//
// When Serve returns early (invalid request, cancellation), it stops
// receiving from reqs — a producer doing a bare channel send would block
// forever. Producers should pair every send with the same ctx:
//
//	select {
//	case reqs <- p:
//	case <-ctx.Done():
//	    return
//	}
//
// and the caller should cancel ctx once Serve has returned (defer cancel()).
//
// Serve is exactly ServeOps over a pure-route stream.
func (nw *Network) Serve(ctx context.Context, reqs <-chan Pair) (ServeStats, error) {
	done := make(chan struct{})
	defer close(done)
	ops, _ := forward(reqs, done, func(p Pair) (Op, error) { return RouteOp(p.Src, p.Dst), nil })
	return nw.ServeOps(ctx, ops, nil)
}
