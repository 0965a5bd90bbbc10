package core

import (
	"fmt"

	"lsasg/internal/skipgraph"
)

// This file is the op envelope of the KV data plane: the request type every
// serving layer boundary (engine dispatch, shard dispatch, public API)
// carries instead of a bare src/dst pair. Route is the zero value, so a
// pure-route stream behaves — byte for byte — exactly as it did when the
// boundaries carried Pair.
//
// The split of responsibilities matches the serving architecture: an op's
// route half (internal/serve) measures its distance, takes a Get's or
// Scan's read and applies Write here — a Put's value write, a Delete's
// leave — and its adjust half is AdjustAccess, the transformation and
// scoped repair; ApplyOp is both halves in one call. Point
// ops adjust the topology exactly like a communication request: a Get or
// Put of key k from origin o is an access σ=(o,k) and feeds the same
// transformation and scoped balance repair. Put of an absent key is a
// tracked join; Delete is a tracked leave; both on a crashed key go through
// the crash-repair path first.

// OpKind discriminates the request envelope. OpRoute is the zero value.
type OpKind uint8

const (
	// OpRoute is a pure communication request: route src→dst, then adjust.
	OpRoute OpKind = iota
	// OpGet reads Dst's value (snapshot read in the engine; live read here)
	// and adjusts the topology for the access like a route.
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

// OpResult reports one applied op: the transformation measures (zero when
// the op ran no transformation) plus the KV outcome.
type OpResult struct {
	AdjustResult

	// Found/Value/Version report a Get against the live graph at apply
	// time (a Put reports the version it wrote in Version).
	Found   bool
	Value   []byte
	Version int64

	// Existed reports whether a Put overwrote an existing live key (false:
	// the op was a tracked join) and whether a Delete removed anything.
	Existed bool

	// Entries holds OpScan results read from the live graph at apply time.
	Entries []skipgraph.Entry
}

// ApplyOp applies one op to the graph and returns its result: Write, then
// AdjustAccess, with a Get's or Scan's read taken first. For OpRoute the
// semantics are exactly Adjust's, errors included. KV ops are total by
// design: a Get/Put/Delete whose transform endpoint is missing or dead skips
// the transformation instead of failing (the access still resolves: a miss,
// a join, a repair), so a deterministic op stream never aborts on data
// racing membership in the op stream.
func (d *DSG) ApplyOp(op Op) (OpResult, error) {
	var res OpResult
	switch op.Kind {
	case OpRoute:
	case OpGet:
		if n := d.NodeByID(op.Dst); n != nil && !n.Dead() {
			if v, ver, ok := d.g.GetValue(n.Key()); ok {
				res.Found, res.Value, res.Version = true, v, ver
			}
		}
	case OpPut, OpDelete:
		var err error
		if res.Version, res.Existed, err = d.Write(op); err != nil {
			return res, err
		}
	case OpScan:
		return OpResult{Entries: d.g.ScanFrom(skipgraph.KeyOf(op.Dst), max(op.Limit, 1))}, nil
	default:
		return res, fmt.Errorf("core: unknown op kind %d", op.Kind)
	}
	var err error
	res.AdjustResult, err = d.AdjustAccess(op)
	return res, err
}

// Write applies the data half of one op — everything that changes
// membership or what a later op can read — and reports the version a Put
// wrote and whether a Put or Delete found a live record. It is a no-op for
// the other kinds. A serving engine runs it in the op's route half, before
// the reply; AdjustAccess is the rest.
func (d *DSG) Write(op Op) (version int64, existed bool, err error) {
	switch op.Kind {
	case OpPut:
		return d.applyPut(op)
	case OpDelete:
		existed, err := d.applyDelete(op)
		return 0, existed, err
	}
	return 0, false, nil
}

// AdjustAccess applies the topology half of one op: Adjust for a route,
// errors included; the tolerant access transformation for a Get or Put
// (see adjustIfPossible); nothing for a Delete or Scan. Its only error on a
// KV op is a failed invariant check under Config.CheckInvariants.
func (d *DSG) AdjustAccess(op Op) (AdjustResult, error) {
	switch op.Kind {
	case OpRoute:
		return d.Adjust(op.Src, op.Dst)
	case OpGet, OpPut:
		return d.adjustIfPossible(op.Src, op.Dst)
	}
	return AdjustResult{}, nil
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

// adjustIfPossible runs the access transformation for (src, dst) when both
// endpoints are alive real nodes and distinct, and returns the zero result
// otherwise — the KV ops' tolerant twin of Adjust. A missing endpoint is
// not an error for a data op: the data outcome (miss, join, update) already
// happened; only the topology adaptation is skipped. Only a scoped-repair
// invariant failure under CheckInvariants returns an error.
func (d *DSG) adjustIfPossible(src, dst int64) (AdjustResult, error) {
	u, v := d.NodeByID(src), d.NodeByID(dst)
	if u == nil || v == nil || u == v || u.Dead() || v.Dead() {
		return AdjustResult{}, nil
	}
	r, err := d.adjust(u, v)
	if err != nil {
		return r, fmt.Errorf("core: kv adjust (%d,%d): %w", src, dst, err)
	}
	return r, nil
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
