package lsasg

import (
	"context"

	"lsasg/internal/core"
	"lsasg/internal/shard"
	"lsasg/internal/skipgraph"
)

// This file is the public KV data plane: every node index doubles as a key
// that can hold one versioned value, and the point operations adjust the
// topology exactly like communication requests — a Get or Put of key k from
// origin o is the access σ=(o,k) of the paper, feeding the same
// transformation and scoped a-balance repair. Put of an absent key joins
// it; Delete leaves it; Scan reads the sorted level-0 run without
// adjusting. The surface is a synchronous API (Do, and Get/Put/Delete/Scan
// over it) and a streamed one (ServeOps); a synchronous call is a one-op
// window through the driver ServeOps runs. On a sharded network
// point ops land on the shard owning the key (a cross-shard access adapts
// the origin shard along src→boundary too, exactly like a cross-shard
// route), and Scan stitches the shards' level-0 runs in directory order —
// shard order is key order — so a range read spanning shards comes back
// globally sorted and limit-exact.

// OpKind discriminates a public op envelope. RouteKind is the zero value,
// so Op{Src: a, Dst: b} is a plain communication request.
type OpKind uint8

const (
	// RouteKind is a pure communication request between two live keys.
	RouteKind OpKind = iota
	// GetKind reads Dst's value as every earlier op left it.
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
	Found   bool   // GetKind: key held a value when the op routed
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

	// Err reports a route op whose endpoint had been deleted, removed or
	// had crashed when it routed: ErrUnknownKey or ErrDeadNode. Such an op
	// is a per-op miss — counted, no path sample, no adjustment — and the run
	// carries on, on every shard count. Nil otherwise.
	Err error
}

func opResult(o shard.Outcome) OpResult {
	return OpResult{
		Op:            opFromInternal(o.Op),
		Found:         o.Found,
		Value:         o.Value,
		Version:       o.Version,
		Existed:       o.Existed,
		Entries:       kvEntries(o.Entries),
		RouteDistance: o.RouteDistance,
		RouteHops:     o.RouteHops,
		Err:           wrapErr(o.Err),
	}
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
// it before serving them; library producers may use it to pre-flight ops
// before ServeOps aborts a run on them.
func (op Op) Validate(n int) error {
	return wrapErr(op.internal().Check(int64(n)))
}

// Do serves one op synchronously — a one-op window through the driver
// ServeOps runs, so it decomposes, routes, adjusts and is counted exactly
// like a streamed op — and returns its outcome. A route whose endpoint was deleted,
// removed or has crashed is counted as the miss it is in ServeOps and comes
// back as ErrUnknownKey or ErrDeadNode (in OpResult.Err too); a crashed node
// the route only passes is repaired on contact and the op is served. On a sharded
// network every op feeds the load window, and the rebalancer may migrate one
// key range once WithRebalanceWindow ops have been counted into it; if that
// migration fails the op has still been served, and Do returns its result
// together with ErrBarrier.
//
// Do returns once the op's answer is known — the paper's first step, the
// route, with the Get's or Scan's read and the Put's or Delete's write. On a
// sharded network each shard the op touched then finishes its
// self-adjustment behind the answer, and the next call that needs that shard
// waits for it — an op routed there, the load-window barrier, Request,
// Stats, Verify and every other read of the topology — so nothing any call
// returns depends on the timing, and the caller's next op may route on
// another shard meanwhile. On an unsharded network, which has nothing to
// overlap the adjustment with, it runs before Do returns.
func (nw *Network) Do(op Op) (OpResult, error) {
	o, err := nw.svc.Apply(op.internal())
	return opResult(o), wrapErr(err)
}

// Get reads key's value as an access from src: the value (with its version)
// comes back, and the topology adapts to the access exactly as a Request
// would make it. found is false when the key is absent, crashed, or was
// never written. Not safe for concurrent use with other Network methods.
func (nw *Network) Get(src, key int) (value []byte, version int64, found bool, err error) {
	r, err := nw.Do(GetOp(src, key))
	return r.Value, r.Version, r.Found, err
}

// Put writes value to key as an access from src. An absent key joins the
// owning shard's topology (a tracked join with scoped balance repair); a
// crashed key is repaired and rejoined fresh. Returns the version assigned
// to the write and whether the key already held a live record.
func (nw *Network) Put(src, key int, value []byte) (version int64, existed bool, err error) {
	r, err := nw.Do(PutOp(src, key, value))
	return r.Version, r.Existed, err
}

// Delete removes key from the keyspace — a tracked leave with scoped
// balance repair (or a crash repair when the key is dead). Deleting an
// absent key is a no-op with existed == false.
func (nw *Network) Delete(src, key int) (existed bool, err error) {
	r, err := nw.Do(DeleteOp(src, key))
	return r.Existed, err
}

// Scan reads up to limit value-bearing entries in ascending key order,
// starting at the first key ≥ start, requested by origin src, stitching
// across shard boundaries. Read-only: the topology does not adjust, but the
// access feeds the working-set bookkeeping like any other op.
func (nw *Network) Scan(src, start, limit int) ([]KV, error) {
	r, err := nw.Do(ScanOp(src, start, limit))
	return r.Entries, err
}

// noteKVAccess is the sequence-order bookkeeping of one served access
// σ=(src, key) — a route, a point op, or a scan as the access (src, start) —
// whichever entry point served it: the service reports every outcome here,
// synchronous or streamed. KV ops may be self-accesses (src == key), which
// the bound tracker has no use for.
func (nw *Network) noteKVAccess(o shard.Outcome) {
	nw.lastWS = 0
	if o.Op.Src != o.Op.Dst {
		nw.lastWS = nw.ws.Add(int(o.Op.Src), int(o.Op.Dst))
	}
	if nw.onResult != nil {
		nw.onResult(opResult(o))
	}
}

// ServeOps consumes op envelopes — routes and KV operations — until the
// channel closes (or ctx is cancelled) and serves them in order. It returns
// what a loop over Do returns — the same OpResults in the same order, the
// same Stats, the same topology — and differs from that loop only in
// wall-clock time on a sharded network: there a dispatcher takes a load
// window's worth of ops (WithRebalanceWindow) off the channel, splits each op
// into per-shard legs, and the shards serve their legs side by side, each in
// order, route then adjust; after every window the rebalancer may migrate one
// contiguous key range between adjacent shards. Cross-shard scans fan one
// leg per intersecting shard and are stitched once their window has been
// served. onResult, when non-nil, receives every op's assembled outcome —
// routes included — in request order: per window, and per op on an unsharded
// network. The Stats it returns are the run's books: what the run added to
// Stats' lifetime books, WorkingSetBound included, with Height and
// DummyCount as the run left them.
//
// A route whose endpoint was deleted or has crashed does not abort the run:
// it is delivered with OpResult.Err set and adjusts nothing. An invalid
// envelope (see Op.Validate) ends the run with an error once the ops before
// it have been served.
//
// ServeOps must not run concurrently with other Network methods. When it
// returns early (invalid envelope, cancellation), it stops receiving from
// ops — a producer doing a bare channel send would block forever. Producers
// should pair every send with the same ctx:
//
//	select {
//	case ops <- op:
//	case <-ctx.Done():
//	    return
//	}
//
// and the caller should cancel ctx once ServeOps has returned (defer
// cancel()).
func (nw *Network) ServeOps(ctx context.Context, ops <-chan Op, onResult func(OpResult)) (Stats, error) {
	nw.onResult = onResult
	defer func() { nw.onResult = nil }()
	ws := nw.ws.Total()
	done := make(chan struct{})
	st, err := nw.svc.Serve(ctx, forward(ops, done))
	close(done)
	return nw.stats(st, nw.ws.Total()-ws), wrapErr(err)
}

// forward passes the envelopes of in, lowered, onto the returned channel
// until in or done closes. It is the adapter between the public producer
// channel and the service's, which checks every envelope and may stop
// receiving early, so every send also watches done.
func forward(in <-chan Op, done <-chan struct{}) <-chan core.Op {
	out := make(chan core.Op)
	go func() {
		defer close(out)
		for {
			select {
			case <-done:
				return
			case op, ok := <-in:
				if !ok {
					return
				}
				select {
				case out <- op.internal():
				case <-done:
					return
				}
			}
		}
	}()
	return out
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
