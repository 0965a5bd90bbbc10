package lsasg

import "lsasg/internal/shard"

// ServeStats aggregates one ServeOps run. Every field is a pure function of
// the seed, the shard count, the load window and the request sequence.
type ServeStats struct {
	// Requests is the number of requests served.
	Requests int64
	// MeanRouteDistance is the mean d_S(σ), each request measured in the
	// topology the requests before it left.
	MeanRouteDistance float64
	// MaxRouteDistance is the worst routing distance observed. For
	// a sharded run this is the worst single LEG (the legs of one
	// cross-shard request are served by different shards, so
	// whole-request maxima are not tracked) while MeanRouteDistance spans
	// whole requests — with heavily cross-shard traffic the max can
	// therefore legitimately sit below the mean.
	MaxRouteDistance int
	// TotalTransformRounds sums ρ over all applied adjustments.
	TotalTransformRounds int64
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

	// The KV fields below stay zero for pure-route runs. Counts are at
	// request granularity (a cross-shard scan is one
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

// serveStats folds one ServeOps run into the public shape.
func (nw *Network) serveStats(st shard.ServeStats) ServeStats {
	out := ServeStats{
		Requests:             st.Requests,
		MaxRouteDistance:     int(st.MaxLegDistance),
		TotalTransformRounds: st.TotalTransformRounds,
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
	return out
}
