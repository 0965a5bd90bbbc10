package lsasg

import (
	"context"
	"fmt"

	"lsasg/internal/core"
	"lsasg/internal/serve"
	"lsasg/internal/skipgraph"
)

// This file is the public KV data plane: every node index doubles as a key
// that can hold one versioned value, and the point operations adjust the
// topology exactly like communication requests — a Get or Put of key k from
// origin o is the access σ=(o,k) of the paper, feeding the same
// transformation and scoped a-balance repair. Put of an absent key joins
// it; Delete leaves it; Scan reads the sorted level-0 run without
// adjusting. Both Network and ShardedNetwork expose the same surface: a
// synchronous API (Get/Put/Delete/Scan) and a batched deterministic one
// (ServeOps).

// OpKind discriminates a public op envelope. RouteKind is the zero value,
// so Op{Src: a, Dst: b} is a plain communication request.
type OpKind uint8

const (
	// RouteKind is a pure communication request between two live keys.
	RouteKind OpKind = iota
	// GetKind reads Dst's value as its batch's route phase finds it.
	GetKind
	// PutKind writes Value to Dst (update, or join when absent).
	PutKind
	// DeleteKind removes Dst from the keyspace (a tracked leave).
	DeleteKind
	// ScanKind reads up to Limit entries starting at the first key ≥ Dst.
	ScanKind
)

// Op is one request envelope consumed by ServeOps.
type Op struct {
	Kind     OpKind
	Src, Dst int
	Value    []byte
	Limit    int
}

// RouteOp builds a communication request: route Src→Dst and adjust.
func RouteOp(src, dst int) Op { return Op{Kind: RouteKind, Src: src, Dst: dst} }

// GetOp builds a read of key from origin src.
func GetOp(src, key int) Op { return Op{Kind: GetKind, Src: src, Dst: key} }

// PutOp builds a write of value to key from origin src.
func PutOp(src, key int, value []byte) Op {
	return Op{Kind: PutKind, Src: src, Dst: key, Value: value}
}

// DeleteOp builds a removal of key, requested by src.
func DeleteOp(src, key int) Op { return Op{Kind: DeleteKind, Src: src, Dst: key} }

// ScanOp builds a range read of up to limit entries from the first key ≥
// start, requested by origin src. Like every other op, a scan carries its
// origin: src flows into the working-set bookkeeping (a scan from src
// starting at k is the access (src, k)), though scans remain read-only and
// never adjust the topology.
func ScanOp(src, start, limit int) Op {
	return Op{Kind: ScanKind, Src: src, Dst: start, Limit: limit}
}

// KV is one scanned entry: a key, its value, and the version the value was
// written at. The value slice is immutable — treat it as read-only.
type KV struct {
	Key     int
	Value   []byte
	Version int64
}

// OpResult is one op's outcome, delivered by ServeOps in request order.
type OpResult struct {
	Op      Op
	Found   bool   // GetKind: key held a value when the op's batch routed
	Value   []byte // GetKind: the value read
	Version int64  // GetKind: version read; PutKind: version written
	Existed bool   // PutKind: overwrote; DeleteKind: removed something
	Entries []KV   // ScanKind: the stitched range read

	// RouteDistance and RouteHops measure the op's access path at route
	// time (0 for scans, which read without routing).
	// On a sharded run they cover the destination-shard access leg plus the
	// boundary intermediates and forwarding hops of a cross-shard access.
	RouteDistance int
	RouteHops     int
	// AdjustLag is the number of adjustments pending when the op was routed
	// (its own included) — the worst single leg's lag on a sharded run.
	AdjustLag int
}

func kvEntries(es []skipgraph.Entry) []KV {
	if len(es) == 0 {
		return nil
	}
	out := make([]KV, len(es))
	for i, e := range es {
		out[i] = KV{Key: int(e.ID), Value: e.Value, Version: e.Version}
	}
	return out
}

func (op Op) internal() core.Op {
	return core.Op{
		Kind:  core.OpKind(op.Kind),
		Src:   int64(op.Src),
		Dst:   int64(op.Dst),
		Value: op.Value,
		Limit: op.Limit,
	}
}

// Validate checks the envelope against the fixed key space [0, n): every
// endpoint must be in range (a scan's origin included) and a route must
// connect two distinct keys. Out-of-range endpoints report
// errors.Is(err, ErrOutOfRange). The wire server validates envelopes with
// it before feeding them to a pipeline; library producers may use it to
// pre-flight ops before ServeOps aborts a run on them.
func (op Op) Validate(n int) error {
	if op.Kind > ScanKind {
		return fmt.Errorf("lsasg: unknown op kind %d", op.Kind)
	}
	if op.Dst < 0 || op.Dst >= n {
		return fmt.Errorf("%w: key %d not in [0, %d)", ErrOutOfRange, op.Dst, n)
	}
	if op.Src < 0 || op.Src >= n {
		return fmt.Errorf("%w: key %d not in [0, %d)", ErrOutOfRange, op.Src, n)
	}
	if op.Kind == RouteKind && op.Src == op.Dst {
		return fmt.Errorf("lsasg: source and destination are both %d", op.Src)
	}
	return nil
}

// Get reads key's value as an access from src: the value (with its version)
// comes back, and the topology adapts to the access exactly as a Request
// would make it. found is false when the key is absent, crashed, or was
// never written. Not safe for concurrent use with other Network methods.
func (nw *Network) Get(src, key int) (value []byte, version int64, found bool, err error) {
	if err := GetOp(src, key).Validate(nw.n); err != nil {
		return nil, 0, false, err
	}
	res, err := nw.dsg.ApplyOp(core.Op{Kind: core.OpGet, Src: int64(src), Dst: int64(key)})
	if err != nil {
		return nil, 0, false, wrapErr(err)
	}
	nw.noteKVAccess(src, key)
	return res.Value, res.Version, res.Found, nil
}

// Put writes value to key as an access from src. An absent key joins the
// topology (a tracked join with scoped balance repair); a crashed key is
// repaired and rejoined fresh. Returns the version assigned to the write
// and whether the key already held a live record.
func (nw *Network) Put(src, key int, value []byte) (version int64, existed bool, err error) {
	if err := PutOp(src, key, value).Validate(nw.n); err != nil {
		return 0, false, err
	}
	res, err := nw.dsg.ApplyOp(core.Op{Kind: core.OpPut, Src: int64(src), Dst: int64(key), Value: value})
	if err != nil {
		return 0, false, wrapErr(err)
	}
	nw.noteKVAccess(src, key)
	return res.Version, res.Existed, nil
}

// Delete removes key from the keyspace — a tracked leave with scoped
// balance repair (or a crash repair when the key is dead). Deleting an
// absent key is a no-op with existed == false.
func (nw *Network) Delete(src, key int) (existed bool, err error) {
	if err := DeleteOp(src, key).Validate(nw.n); err != nil {
		return false, err
	}
	res, err := nw.dsg.ApplyOp(core.Op{Kind: core.OpDelete, Src: int64(src), Dst: int64(key)})
	if err != nil {
		return false, wrapErr(err)
	}
	nw.noteKVAccess(src, key)
	return res.Existed, nil
}

// Scan reads up to limit value-bearing entries in ascending key order,
// starting at the first key ≥ start, requested by origin src. Read-only:
// the topology does not adjust, but the access feeds the working-set
// bookkeeping like any other op.
func (nw *Network) Scan(src, start, limit int) ([]KV, error) {
	if err := ScanOp(src, start, limit).Validate(nw.n); err != nil {
		return nil, err
	}
	res, err := nw.dsg.ApplyOp(core.Op{Kind: core.OpScan, Dst: int64(start), Limit: limit})
	if err != nil {
		return nil, wrapErr(err)
	}
	nw.noteKVAccess(src, start)
	return kvEntries(res.Entries), nil
}

// noteKVAccess is Request's sequence-order bookkeeping for a synchronous KV
// access.
func (nw *Network) noteKVAccess(src, key int) {
	if nw.ws != nil && src != key {
		nw.ws.Add(src, key)
	}
	nw.requests++
}

// ServeOps consumes op envelopes — routes and KV operations — until the
// channel closes (or ctx is cancelled) and serves them through the same
// deterministic engine pipeline as Serve: Get and Scan read in their
// batch's route phase, before the adjust phase applies every mutation
// (including Put-joins and Delete-leaves) in request order. onResult, when
// non-nil, receives each op's outcome in request order. The producer
// contract matches Serve's.
func (nw *Network) ServeOps(ctx context.Context, ops <-chan Op, onResult func(OpResult)) (ServeStats, error) {
	eng := serve.New(nw.dsg, serve.Config{
		Parallelism: nw.parallelism,
		BatchSize:   nw.batchSize,
		Tracer:      nw.tracer,
		OnResult: func(r serve.Result) {
			// Sequence-order bookkeeping, identical to Request's. Every op
			// feeds the working set — a scan is the access (src, start) —
			// but only routed accesses carry distance samples into Stats.
			if nw.ws != nil && r.Op.Src != r.Op.Dst {
				nw.ws.Add(int(r.Op.Src), int(r.Op.Dst))
			}
			if r.Op.Kind != core.OpScan {
				nw.totalRouteDistance += int64(r.RouteDistance)
				nw.totalTransformRounds += int64(r.TransformRounds)
				if r.RouteDistance > nw.maxRouteDistance {
					nw.maxRouteDistance = r.RouteDistance
				}
			}
			nw.requests++
			if onResult != nil {
				onResult(OpResult{
					Op:            opFromInternal(r.Op),
					Found:         r.Found,
					Value:         r.Value,
					Version:       r.Version,
					Existed:       r.Existed,
					Entries:       kvEntries(r.Entries),
					RouteDistance: r.RouteDistance,
					RouteHops:     r.RouteHops,
					AdjustLag:     r.AdjustLag,
				})
			}
		},
	})
	st, err := runServeOps(ops, nw.n, func(inner <-chan core.Op) (serve.Stats, error) {
		return eng.Serve(ctx, inner)
	})
	return engineServeStats(st, nw.dsg.Graph().Height(), nw.dsg.DummyCount()), err
}

func opFromInternal(op core.Op) Op {
	return Op{
		Kind:  OpKind(op.Kind),
		Src:   int(op.Src),
		Dst:   int(op.Dst),
		Value: op.Value,
		Limit: op.Limit,
	}
}
