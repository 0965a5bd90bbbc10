package lsasg

import (
	"context"

	"lsasg/internal/serve"
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
	// cross-shard request finish in different shards' pipelines, so
	// whole-request maxima are not tracked) while MeanRouteDistance spans
	// whole requests — with heavily cross-shard traffic the max can
	// therefore legitimately sit below the mean.
	MaxRouteDistance int
	// TotalTransformRounds sums ρ over all applied adjustments.
	TotalTransformRounds int64
	// MeanAdjustLag is the mean number of adjustments pending (own included)
	// when a request was routed: a batch routes whole before any of it
	// adjusts, so the lag averages (BatchSize+1)/2 on full batches.
	MeanAdjustLag float64
	// MaxAdjustLag is the worst such lag (at most BatchSize).
	MaxAdjustLag int
	// Height and DummyCount describe the live topology after the run.
	Height     int
	DummyCount int

	// The sharded fields below stay zero for an unsharded Network.Serve.

	// Shards is the partition count the run served across (0 for a plain
	// Network).
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

// engineServeStats folds one engine pipeline run into the public shape —
// the single assembly point shared by Serve and ServeOps.
func engineServeStats(st serve.Stats, height, dummies int) ServeStats {
	return ServeStats{
		Requests:             st.Requests,
		Batches:              st.Batches,
		MeanRouteDistance:    st.MeanRouteDistance(),
		MaxRouteDistance:     st.MaxRouteDistance,
		TotalTransformRounds: st.TotalTransformRounds,
		MeanAdjustLag:        st.MeanAdjustLag(),
		MaxAdjustLag:         st.MaxAdjustLag,
		Height:               height,
		DummyCount:           dummies,
		Gets:                 st.Gets,
		GetHits:              st.GetHits,
		Puts:                 st.Puts,
		PutInserts:           st.PutInserts,
		Deletes:              st.Deletes,
		DeleteHits:           st.DeleteHits,
		Scans:                st.Scans,
		ScannedEntries:       st.ScannedEntries,
	}
}

// Serve consumes communication requests from the channel until it closes (or
// ctx is cancelled) and serves them through the batch engine: each batch of
// WithBatchSize requests is first routed — WithParallelism workers reading
// the topology, which nothing mutates meanwhile — and then adjusted, the
// self-adjusting transformations applied in request order.
//
// Requests therefore observe a topology that lags their own batch's
// adjustments (see ServeStats.MeanAdjustLag): routing distances are measured
// before the batch adjusts, and the adjust phase then advances the topology
// request by request with the trace-runner semantics — each transformation
// followed by its scoped a-balance repair, after one global repair at
// engine start. Note that this is slightly stronger than a sequence of
// Request calls, which transform but never run the standalone repairs;
// Serve additionally maintains the global a-balance property throughout,
// like core.RunTrace. The working-set bookkeeping backing Stats advances in
// exact request order. For a fixed seed and batch schedule the results are
// deterministic, independent of parallelism and of producer timing.
//
// Serve must not run concurrently with other Network methods; all other
// concurrency lives inside the engine. On an invalid request (index out of
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
	return forwardPairs(ctx, reqs, nw.ServeOps)
}
