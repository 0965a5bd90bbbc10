package lsasg

import (
	"context"

	"lsasg/internal/core"
	"lsasg/internal/shard"
)

// This file is the sharded KV surface: the same Get/Put/Delete/Scan +
// ServeOps API as Network, served across the shard directory. Point ops
// land on the shard owning the key (a cross-shard access adapts the origin
// shard along src→boundary too, exactly like a cross-shard route); Scan
// stitches the shards' level-0 runs in directory order — shard order is key
// order — so a range read spanning shards comes back globally sorted and
// limit-exact.

// Get reads key's value as an access from src. Synchronous: the service
// must not be mid-Serve.
func (nw *ShardedNetwork) Get(src, key int) (value []byte, version int64, found bool, err error) {
	if err := GetOp(src, key).Validate(nw.n); err != nil {
		return nil, 0, false, err
	}
	o, err := nw.svc.Apply(core.Op{Kind: core.OpGet, Src: int64(src), Dst: int64(key)})
	if err != nil {
		return nil, 0, false, wrapErr(err)
	}
	nw.noteKVAccess(src, key)
	return o.Value, o.Version, o.Found, nil
}

// Put writes value to key as an access from src; an absent key joins the
// owning shard's topology.
func (nw *ShardedNetwork) Put(src, key int, value []byte) (version int64, existed bool, err error) {
	if err := PutOp(src, key, value).Validate(nw.n); err != nil {
		return 0, false, err
	}
	o, err := nw.svc.Apply(core.Op{Kind: core.OpPut, Src: int64(src), Dst: int64(key), Value: value})
	if err != nil {
		return 0, false, wrapErr(err)
	}
	nw.noteKVAccess(src, key)
	return o.Version, o.Existed, nil
}

// Delete removes key from its owning shard (a tracked leave). Deleting an
// absent key is a no-op with existed == false.
func (nw *ShardedNetwork) Delete(src, key int) (existed bool, err error) {
	if err := DeleteOp(src, key).Validate(nw.n); err != nil {
		return false, err
	}
	o, err := nw.svc.Apply(core.Op{Kind: core.OpDelete, Src: int64(src), Dst: int64(key)})
	if err != nil {
		return false, wrapErr(err)
	}
	nw.noteKVAccess(src, key)
	return o.Existed, nil
}

// Scan reads up to limit value-bearing entries in ascending key order
// starting at the first key ≥ start, requested by origin src, stitching
// across shard boundaries. Read-only, but the access feeds the working-set
// bookkeeping like any other op.
func (nw *ShardedNetwork) Scan(src, start, limit int) ([]KV, error) {
	if err := ScanOp(src, start, limit).Validate(nw.n); err != nil {
		return nil, err
	}
	o, err := nw.svc.Apply(core.Op{Kind: core.OpScan, Src: int64(src), Dst: int64(start), Limit: limit})
	if err != nil {
		return nil, wrapErr(err)
	}
	nw.noteKVAccess(src, start)
	return kvEntries(o.Entries), nil
}

// noteKVAccess is the synchronous KV twin of the OnRequest bookkeeping.
func (nw *ShardedNetwork) noteKVAccess(src, key int) {
	if nw.ws != nil && src != key {
		nw.ws.Add(src, key)
	}
	nw.requests++
}

// ServeOps consumes op envelopes — routes and KV operations — until the
// channel closes (or ctx is cancelled) and serves them through the sharded
// deterministic pipeline. Cross-shard scans fan one leg per intersecting
// shard and stitch the fragments at the window barrier, where every leg has
// completed; onResult, when non-nil, receives every op's assembled outcome
// there — routes included, matching Network.ServeOps — in dispatch order.
// The producer contract matches Serve's.
func (nw *ShardedNetwork) ServeOps(ctx context.Context, ops <-chan Op, onResult func(OpResult)) (ServeStats, error) {
	if onResult != nil {
		nw.onOutcome = func(o shard.Outcome) {
			onResult(OpResult{
				Op:            opFromInternal(o.Op),
				Found:         o.Found,
				Value:         o.Value,
				Version:       o.Version,
				Existed:       o.Existed,
				Entries:       kvEntries(o.Entries),
				RouteDistance: o.RouteDistance,
				RouteHops:     o.RouteHops,
				AdjustLag:     o.AdjustLag,
			})
		}
		defer func() { nw.onOutcome = nil }()
	}
	st, err := runServeOps(ops, nw.n, func(inner <-chan core.Op) (shard.ServeStats, error) {
		return nw.svc.Serve(ctx, inner)
	})
	return nw.serveStatsFrom(st), err
}
