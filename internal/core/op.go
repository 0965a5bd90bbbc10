package core

import (
	"errors"
	"fmt"

	"lsasg/internal/skipgraph"
)

// This file is the op envelope of the KV data plane and the one request
// step over it: the request type every serving layer boundary (shard
// dispatch, a shard's step, public API) carries instead of a bare src/dst
// pair. Route is the zero value, so a pure-route stream behaves — byte for
// byte — exactly as it did when the boundaries carried Pair.
//
// The step has two halves, and every caller — a shard's step
// (internal/shard), ApplyOp — runs these two: Access, the route half,
// routes the op (repairing a crashed intermediate it contacts), takes a
// Get's or Scan's read and applies the write — a Put's value, a Delete's
// leave; AdjustAccess, the adjust half, is the transformation and scoped
// repair. Point ops adjust the topology exactly like a communication
// request: a Get or Put of key k from origin o is an access σ=(o,k) and
// feeds the same transformation and scoped balance repair. Put of an absent
// key is a tracked join; Delete is a tracked leave; both on a crashed key go
// through the crash-repair path first.

// OpKind discriminates the request envelope. OpRoute is the zero value.
type OpKind uint8

const (
	// OpRoute is a pure communication request: route src→dst, then adjust.
	OpRoute OpKind = iota
	// OpGet reads Dst's value (in the route half, off the live graph) and
	// adjusts the topology for the access like a route.
	OpGet
	// OpPut writes Value to Dst — update in place when the key is alive,
	// tracked join when absent, crash-repair + rejoin when dead — and
	// adjusts for the access.
	OpPut
	// OpDelete removes Dst from the keyspace: a tracked leave (scoped
	// balance repair included), or a crash repair when the key is dead.
	OpDelete
	// OpScan reads up to Limit value-bearing entries from the level-0 run
	// starting at the first key ≥ Dst. Read-only: no adjustment.
	OpScan
)

// String names the op kind for diagnostics.
func (k OpKind) String() string {
	switch k {
	case OpRoute:
		return "route"
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpDelete:
		return "delete"
	case OpScan:
		return "scan"
	}
	return fmt.Sprintf("opkind(%d)", byte(k))
}

// Op is one request envelope. Src is the accessing origin and Dst the
// target key (the scan start for OpScan). Value is the OpPut payload;
// Limit caps OpScan results.
type Op struct {
	Kind     OpKind
	Src, Dst int64
	Value    []byte
	Limit    int
}

// RouteOp builds the envelope of a plain communication request.
func RouteOp(src, dst int64) Op { return Op{Kind: OpRoute, Src: src, Dst: dst} }

// ErrOutOfRange is wrapped by Check for an endpoint outside the key space.
var ErrOutOfRange = errors.New("core: key out of range")

// Check validates the envelope against the key space [0, n): a known kind,
// both endpoints in range (a scan's origin included), and two distinct keys
// for a route.
func (op Op) Check(n int64) error {
	if op.Kind > OpScan {
		return fmt.Errorf("core: unknown op kind %d", op.Kind)
	}
	for _, k := range [2]int64{op.Dst, op.Src} {
		if k < 0 || k >= n {
			return fmt.Errorf("%w: %d not in [0, %d)", ErrOutOfRange, k, n)
		}
	}
	if op.Kind == OpRoute && op.Src == op.Dst {
		return fmt.Errorf("core: source and destination are both %d", op.Src)
	}
	return nil
}

// OpResult reports one op served by the step: what its route half
// measured and read (Access), then its transformation's measures
// (AdjustAccess; zero when the op ran none).
type OpResult struct {
	AdjustResult

	RouteDistance int // d_S(σ): intermediate nodes on the routing path
	RouteHops     int // link traversals (RouteDistance + 1)

	// Miss is the routing error of an access one of whose endpoints was
	// unknown (skipgraph.ErrUnknownKey) or dead (a skipgraph.DeadRouteError
	// naming it) when it routed: the path sample is absent, a route adjusts
	// nothing, and the rest of the op still runs. Nil otherwise.
	Miss error

	// Found/Value/Version report a Get against the live graph at route
	// time (a Put reports the version it wrote in Version).
	Found   bool
	Value   []byte
	Version int64

	// Existed reports whether a Put overwrote an existing live key (false:
	// the op was a tracked join) and whether a Delete removed anything.
	Existed bool

	// Entries holds OpScan results read from the live graph.
	Entries []skipgraph.Entry
}

// ServiceCost returns the paper's cost of serving the request:
// d_St(σ) + ρ + 1 (§III).
func (r OpResult) ServiceCost() int {
	return r.RouteDistance + r.TransformRounds + 1
}

// ApplyOp serves one op with the whole step: Access, then AdjustAccess. A
// miss is reported in the result's Miss, not as an error: KV ops are total
// by design — an access whose endpoint is missing or dead still resolves (a
// miss, a join, a repair) and skips only the transformation — so a
// deterministic op stream never aborts on data racing membership in it.
func (d *DSG) ApplyOp(op Op) (OpResult, error) {
	r, err := d.Access(op)
	if err != nil {
		return r, err
	}
	r.AdjustResult = d.AdjustAccess(op)
	return r, nil
}

// Access is the route half of the step on the live graph. It routes
// op.Src → op.Dst by key with the standard skip-graph routing (Appendix B);
// a crashed intermediate the route contacts is repaired at detection
// (repairCrashed) and the op routes again — each retry removes one corpse,
// so the loop ends. Then a Get takes its read and the write applies: a
// Put's value, a join included, and every Delete — everything that changes
// membership or what a later op can read. A Scan reads its run and does not
// route. An unknown or dead endpoint is the op's Miss, not a failure, and is
// not repaired here: a Put or Delete of the key repairs a dead one. The
// error reports an invalid op, a route that found no path, or a failed
// write.
func (d *DSG) Access(op Op) (OpResult, error) {
	var r OpResult
	switch op.Kind {
	case OpScan:
		r.Entries = d.g.ScanFrom(skipgraph.KeyOf(op.Dst), max(op.Limit, 1))
		return r, nil
	case OpRoute:
		if op.Src == op.Dst {
			return r, fmt.Errorf("core: self-communication for id %d", op.Src)
		}
	case OpGet, OpPut, OpDelete:
	default:
		return r, fmt.Errorf("core: unknown op kind %d", op.Kind)
	}
	var err error
	if r.RouteDistance, r.RouteHops, err = d.route(op.Src, op.Dst); err != nil {
		if !errors.Is(err, skipgraph.ErrUnknownKey) && !errors.Is(err, skipgraph.ErrDeadNode) {
			return r, fmt.Errorf("core: routing failed: %w", err)
		}
		r.Miss = err
	}
	switch op.Kind {
	case OpGet:
		r.Value, r.Version, r.Found = d.g.GetValue(skipgraph.KeyOf(op.Dst))
	case OpPut:
		r.Version, r.Existed, err = d.applyPut(op)
		return r, err
	case OpDelete:
		r.Existed, err = d.applyDelete(op)
		return r, err
	}
	return r, nil
}

// route routes src → dst on the live graph, repairing every crashed
// intermediate it contacts, and measures the route that got through. A
// dead endpoint ends it with the DeadRouteError naming it. The path lives
// in a scratch buffer, so routing allocates nothing once it has grown.
func (d *DSG) route(src, dst int64) (distance, hops int, err error) {
	for {
		var r skipgraph.RouteResult
		r, err = d.g.RouteKeysInto(d.scratch.route, skipgraph.KeyOf(src), skipgraph.KeyOf(dst))
		if r.Path != nil {
			d.scratch.route = recycle(r.Path)
		}
		if err == nil {
			return r.Distance(), r.Hops(), nil
		}
		var dre *skipgraph.DeadRouteError
		if !errors.As(err, &dre) || dre.Node.ID() == src || dre.Node.ID() == dst {
			return 0, 0, err
		}
		d.crashDetectCount++
		d.repairCrashed(dre.Node)
	}
}

// AdjustAccess is the adjust half of the step: the access transformation
// and its scoped repair for a route, a Get or a Put whose endpoints are two
// distinct live real nodes, after which the graph is a-balanced again. It
// does nothing otherwise — not for a Delete or a Scan, and not for an access
// Access reported as a miss, whose endpoint is still unknown or dead: the
// data outcome (miss, join, update) already happened, only the topology
// adaptation is skipped, and a transformation must not resurrect a corpse
// into a group.
func (d *DSG) AdjustAccess(op Op) AdjustResult {
	// The op ends here: the dummies it retired, in either half, are
	// unreachable now and may serve the next one.
	defer d.recycleDummies()
	if op.Kind != OpRoute && op.Kind != OpGet && op.Kind != OpPut {
		return AdjustResult{}
	}
	u, v := d.NodeByID(op.Src), d.NodeByID(op.Dst)
	if u == nil || v == nil || u == v || u.Dead() || v.Dead() {
		return AdjustResult{}
	}
	d.clock++
	res := d.transform(u, v, d.clock)
	res.RepairInserted, res.RepairRemoved = d.repairPending()
	res.HeightAfter = d.g.Height()
	return res
}

// applyPut writes op.Value to op.Dst. An alive key updates in place; an
// absent key is a tracked join carrying the value; a crashed key is
// repaired (corpse spliced out, its record lost — crash-stop) and rejoined
// fresh. The access's adjustment is AdjustAccess's.
func (d *DSG) applyPut(op Op) (version int64, existed bool, err error) {
	n := d.NodeByID(op.Dst)
	if n != nil && n.Dead() {
		d.repairCrashed(n)
		n = nil
	}
	if n != nil {
		existed = true
	} else if n, err = d.Add(op.Dst); err != nil {
		return 0, false, fmt.Errorf("core: put join %d: %w", op.Dst, err)
	}
	d.kvSeq++
	d.g.SetValue(n, op.Value, d.kvSeq)
	return d.kvSeq, existed, nil
}

// applyDelete removes op.Dst from the keyspace and reports whether there was
// anything to remove: a tracked leave for an alive key, the crash-repair
// splice for a dead one (a deleted-then-crashed key must not resurrect —
// once removed here, a late crash or repair of the id is a no-op). Deleting
// an absent key is an idempotent miss. No transformation runs: the pair no
// longer exists to link.
func (d *DSG) applyDelete(op Op) (existed bool, err error) {
	n := d.NodeByID(op.Dst)
	if n == nil {
		return false, nil
	}
	if n.Dead() {
		d.repairCrashed(n)
		return true, nil
	}
	if err := d.RemoveNode(op.Dst); err != nil {
		return true, fmt.Errorf("core: delete %d: %w", op.Dst, err)
	}
	return true, nil
}

// Restore re-creates one migrated key on this graph: a tracked join plus
// the value record carried from the donor shard, version preserved. The
// version clock advances past the restored version so later writes on this
// graph stay monotonic per key.
func (d *DSG) Restore(e skipgraph.Entry) error {
	n, err := d.Add(e.ID)
	if err != nil {
		return err
	}
	if e.HasValue {
		if e.Version > d.kvSeq {
			d.kvSeq = e.Version
		}
		d.g.SetValue(n, e.Value, e.Version)
	}
	return nil
}

// KVVersion returns the current value-version clock (the version the most
// recent write received).
func (d *DSG) KVVersion() int64 { return d.kvSeq }
