package serve

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"lsasg/internal/core"
	"lsasg/internal/obs"
	"lsasg/internal/skipgraph"
)

// Config parameterizes an Engine.
type Config struct {
	// BatchSize is ignored: owed to the frozen harness,
	// benchmark/layers.go:281; the next benchmark PR deletes the mention and
	// this with it.
	BatchSize int
	// OnResult, when non-nil, observes every request served, in sequence
	// order.
	OnResult func(r Result)
	// Tracer, when non-nil, turns on the observability layer
	// (internal/obs): stage latency histograms around the step's two halves
	// (route leg, adjust apply) and the per-op route timing
	// (Result.RouteNanos). Whole-op spans and per-verb latency belong to
	// the dispatcher that assembles an op's legs (shard.Service), not to
	// the engine. A nil tracer keeps the hot path timing-free — the cost is
	// one predictable branch per choke point. Wall-clock measurements never
	// feed Stats, so tracing cannot perturb the deterministic contracts.
	Tracer *obs.Tracer
}

// Result reports one served request: the route half (the route, any
// Get/Scan read, any Put/Delete write) measured in the graph every earlier
// request left, then the adjust half — TransformRounds through
// RepairRemoved.
type Result struct {
	Seq   int64   // 0-based position in the run's request sequence
	Op    core.Op // the request envelope
	Epoch int64   // mutations (Apply*Idle calls included) applied before the request routed

	RouteDistance int // d_S(σ) at route time
	RouteHops     int
	// RouteMiss marks an op whose access path could not be measured at
	// route time: a KV op with an endpoint not yet joined or already gone
	// (a Put of a brand-new key routes before its own adjustment joins it),
	// or a route whose endpoint is gone or dead — a Delete or a crash took
	// it earlier in the stream — which then adjusts nothing. The data
	// outcome is unaffected; only the distance sample is absent. RouteErr is
	// the routing error behind the miss, nil otherwise.
	RouteMiss bool
	RouteErr  error

	// RouteNanos is the wall-clock duration of the op's route half (route,
	// any Get/Scan read, any Put/Delete write). Populated only when the engine has a
	// Tracer; exempt from the determinism contracts and never fed into
	// Stats.
	RouteNanos int64

	TransformRounds int
	DirectLevel     int
	Alpha           int
	HeightAfter     int
	RepairInserted  int
	RepairRemoved   int

	// KV outcome, all of it from the route half: Get and Scan report its
	// read, Put and Delete its write.
	Found   bool              // OpGet: key present with a value
	Value   []byte            // OpGet: the value read (immutable)
	Version int64             // OpGet: version read; OpPut: version written
	Existed bool              // OpPut: overwrote; OpDelete: removed something
	Entries []skipgraph.Entry // OpScan: the entries read
}

// Stats aggregates one Serve run. Every field is a pure function of the
// seed and the request sequence.
type Stats struct {
	Requests int64
	// Batches equals Requests: owed to the frozen harness,
	// benchmark/layers.go:669; the next benchmark PR deletes the mention and
	// this with it.
	Batches int64

	TotalRouteDistance   int64
	MaxRouteDistance     int
	TotalRouteHops       int64
	TotalTransformRounds int64
	RepairInserted       int64
	RepairRemoved        int64

	// KV op counters. Gets/Puts/Deletes/Scans count ops by kind (Requests
	// counts every op, routes included); hits and inserts split the outcomes;
	// ScannedEntries totals entries returned across scans; RouteMisses counts
	// ops whose access path was unmeasurable at route time.
	Gets           int64
	GetHits        int64
	Puts           int64
	PutInserts     int64 // puts that joined a new key (vs updated in place)
	Deletes        int64
	DeleteHits     int64
	Scans          int64
	ScannedEntries int64
	RouteMisses    int64

	HeightAfter int // live-graph height after the run's last request
}

// MeanRouteDistance returns the mean routing distance per request.
func (s Stats) MeanRouteDistance() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.TotalRouteDistance) / float64(s.Requests)
}

// MeanAdjustLag is 1 once anything was served: owed to the frozen harness,
// benchmark/layers.go:668; the next benchmark PR deletes the mention and
// this with it.
func (s Stats) MeanAdjustLag() float64 { return float64(min(s.Requests, 1)) }

// Engine serves requests over one DSG, one at a time: route, then adjust.
// The DSG must not be touched by anyone else while a Serve or ServeSlice
// call runs or a RouteSlice's adjust half is pending, and between them only
// through the Apply*Idle entry points, which reserve the engine the same
// way.
type Engine struct {
	dsg *core.DSG
	cfg Config

	// epoch counts the mutations applied so far: one per served request and
	// one per Apply*Idle call. Owned by whoever holds busy.
	epoch int64

	// busy is set while a Serve, ServeSlice or Apply*Idle call owns the
	// live graph, and from a RouteSlice that leaves an adjust half pending
	// until Finish has run it.
	busy atomic.Bool
	// tail is the Result whose adjust half RouteSlice left to Finish.
	tail Result

	// height and dummies are the graph's height and dummy count as of the
	// last release: what Gauges reads without reserving the engine.
	height, dummies atomic.Int64
}

// New creates an engine over the DSG. The scoped repairs behind every
// adjustment assume a globally a-balanced starting point, which core's
// constructors provide.
func New(d *core.DSG, cfg Config) *Engine {
	e := &Engine{dsg: d, cfg: cfg}
	e.publish()
	return e
}

// acquire reserves the live graph for one Serve, ServeSlice, RouteSlice or
// Apply*Idle call; overlapping callers get an error instead of racing the owner.
func (e *Engine) acquire(what string) error {
	if !e.busy.CompareAndSwap(false, true) {
		return fmt.Errorf("serve: %s on an engine that is already serving", what)
	}
	return nil
}

// release publishes the gauges and gives the live graph back.
func (e *Engine) release() {
	e.publish()
	e.busy.Store(false)
}

func (e *Engine) publish() {
	e.height.Store(int64(e.dsg.Graph().Height()))
	e.dummies.Store(int64(e.dsg.DummyCount()))
}

// Gauges returns the graph's height and dummy count as of the end of the
// last serving call, Finish or Apply*Idle call — safe to call at any time,
// from any goroutine, and never waiting for the engine.
func (e *Engine) Gauges() (height, dummies int) {
	return int(e.height.Load()), int(e.dummies.Load())
}

// ApplyCrashIdle injects a crash failure directly on an idle engine (no
// Serve in flight): the node fails in place, leaving its neighbours'
// references dangling until a Put or Delete of the key repairs it.
func (e *Engine) ApplyCrashIdle(id int64) error {
	if err := e.acquire("ApplyCrashIdle"); err != nil {
		return err
	}
	defer e.release()
	if err := e.dsg.Crash(id); err != nil {
		return err
	}
	e.epoch++
	return nil
}

// Serve consumes op envelopes until the channel closes (or ctx is
// cancelled), serves each as it arrives — see serveOp — and returns the
// aggregate statistics, a pure function of the request sequence. An op the
// adjuster rejects (a self-route; KV ops are total and never are) aborts the
// run with an error; the requests before it stay applied and counted.
//
// Overlapping Serve calls are rejected — they would race each other over
// the live graph. Sequential Serve calls on one engine are fine.
func (e *Engine) Serve(ctx context.Context, in <-chan core.Op) (Stats, error) {
	if err := e.acquire("Serve"); err != nil {
		return Stats{}, err
	}
	defer e.release()

	var st Stats
	// A context dead on arrival serves nothing, deterministically — without
	// this check the intake select below races ctx.Done() against a ready
	// channel and can serve a few requests first.
	if err := ctx.Err(); err != nil {
		return st, err
	}
serving:
	for {
		select {
		case <-ctx.Done():
			break serving
		case op, ok := <-in:
			if !ok {
				break serving
			}
			if err := e.serveOp(op, &st); err != nil {
				return st, err
			}
		}
	}
	st.HeightAfter = e.dsg.Graph().Height()
	// A producer that follows the documented pattern closes the channel
	// once ctx is cancelled, and the select above may see either first;
	// report the cancellation whichever it was.
	return st, ctx.Err()
}

// ServeSlice is Serve for a caller that already holds the ops — the sharded
// dispatcher's leg slices: the same step per op, in order, the run added to
// st. On an error the ops before the failing one stay applied and counted.
func (e *Engine) ServeSlice(ops []core.Op, st *Stats) error {
	if err := e.acquire("ServeSlice"); err != nil {
		return err
	}
	defer e.release()
	for _, op := range ops {
		if err := e.serveOp(op, st); err != nil {
			return err
		}
	}
	return nil
}

// RouteSlice is ServeSlice up to the last op's route half: every op before
// it is served whole, and the last one's Result — route half only, its
// adjust fields zero — is reported and its books added to st. If that op
// has an adjust half (a route, a Get or a Put), RouteSlice returns pending
// and keeps the engine reserved for it: nothing else may use the engine or
// read its graph until Finish has run it. Otherwise the engine is released.
func (e *Engine) RouteSlice(ops []core.Op, st *Stats) (pending bool, err error) {
	if err := e.acquire("RouteSlice"); err != nil {
		return false, err
	}
	last := len(ops) - 1
	for _, op := range ops[:last] {
		if err := e.serveOp(op, st); err != nil {
			e.release()
			return false, err
		}
	}
	r, err := e.routeHalf(ops[last], st.Requests)
	if err != nil {
		e.release()
		return false, err
	}
	st.addRoute(&r)
	e.report(r)
	if k := r.Op.Kind; k != core.OpRoute && k != core.OpGet && k != core.OpPut {
		e.release()
		return false, nil
	}
	e.tail = r
	return true, nil
}

// Finish runs the adjust half RouteSlice left pending, adds its books to st
// and releases the engine. Its error is the adjust half's.
func (e *Engine) Finish(st *Stats) error {
	defer e.release()
	r := &e.tail
	err := e.adjustHalf(r)
	if err == nil {
		st.addAdjust(r)
	}
	*r = Result{}
	return err
}

// serveOp is the engine's step, the paper's sequential model (§III): the
// op's route half, then its adjust half, then one Result to st and
// OnResult. A failing op reports nothing.
func (e *Engine) serveOp(op core.Op, st *Stats) error {
	r, err := e.routeHalf(op, st.Requests)
	if err != nil {
		return err
	}
	if err := e.adjustHalf(&r); err != nil {
		return err
	}
	st.addRoute(&r)
	st.addAdjust(&r)
	e.report(r)
	return nil
}

// routeHalf is the first half of the step on the live graph: route the op —
// Get and Scan take their reads here — and apply its write (a Put's value, a
// join included, and every Delete; see core.DSG.Write), everything that
// changes membership or what a later op can read. It returns the op's
// Result without the adjust fields.
func (e *Engine) routeHalf(op core.Op, seq int64) (Result, error) {
	tr := e.cfg.Tracer
	var start time.Time
	if tr != nil {
		start = time.Now()
	}
	out := e.routeOp(op)
	r := Result{
		Seq:           seq,
		Op:            op,
		Epoch:         e.epoch,
		RouteDistance: out.route.Distance(),
		RouteHops:     out.route.Hops(),
		RouteMiss:     out.err != nil,
		RouteErr:      out.err,
		Found:         out.found,
		Value:         out.val,
		Version:       out.ver,
		Entries:       out.entries,
	}
	ver, existed, err := e.dsg.Write(op)
	if err != nil {
		return Result{}, opErr(r, err)
	}
	if op.Kind == core.OpPut {
		r.Version = ver
	}
	r.Existed = existed
	if tr != nil {
		d := time.Since(start)
		r.RouteNanos = int64(d)
		tr.ObserveStage(obs.StageRouteLeg, d)
	}
	e.epoch++
	return r, nil
}

// adjustHalf is the second half of the step: the op's transformation and
// scoped repair (core.DSG.AdjustAccess), filling r's adjust fields. A route
// whose endpoint is unknown or dead (core.ErrUnknownNode,
// core.ErrCrashedNode) is a miss that adjusts nothing, not a failure: the
// data plane changes membership mid-stream, so a route to a key a Delete
// removed earlier is expected.
func (e *Engine) adjustHalf(r *Result) error {
	tr := e.cfg.Tracer
	var start time.Time
	if tr != nil {
		start = time.Now()
	}
	adj, err := e.dsg.AdjustAccess(r.Op)
	if tr != nil {
		tr.ObserveStage(obs.StageAdjustApply, time.Since(start))
	}
	if err != nil {
		if r.Op.Kind != core.OpRoute || !(errors.Is(err, core.ErrUnknownNode) || errors.Is(err, core.ErrCrashedNode)) {
			return opErr(*r, err)
		}
		adj = core.AdjustResult{}
	}
	r.TransformRounds = adj.TransformRounds
	r.DirectLevel = adj.DirectLevel
	r.Alpha = adj.Alpha
	r.HeightAfter = adj.HeightAfter
	r.RepairInserted = adj.RepairInserted
	r.RepairRemoved = adj.RepairRemoved
	return nil
}

func opErr(r Result, err error) error {
	return fmt.Errorf("serve: op %d (%s %d→%d): %w", r.Seq, r.Op.Kind, r.Op.Src, r.Op.Dst, err)
}

func (e *Engine) report(r Result) {
	if e.cfg.OnResult != nil {
		e.cfg.OnResult(r)
	}
}

// addRoute adds one op's route-half figures to the books.
func (s *Stats) addRoute(r *Result) {
	s.Requests++
	s.Batches++
	s.TotalRouteDistance += int64(r.RouteDistance)
	s.TotalRouteHops += int64(r.RouteHops)
	if r.RouteDistance > s.MaxRouteDistance {
		s.MaxRouteDistance = r.RouteDistance
	}
	if r.RouteMiss {
		s.RouteMisses++
	}
	switch r.Op.Kind {
	case core.OpGet:
		s.Gets++
		if r.Found {
			s.GetHits++
		}
	case core.OpPut:
		s.Puts++
		if !r.Existed {
			s.PutInserts++
		}
	case core.OpDelete:
		s.Deletes++
		if r.Existed {
			s.DeleteHits++
		}
	case core.OpScan:
		s.Scans++
		s.ScannedEntries += int64(len(r.Entries))
	}
}

// addAdjust adds one op's adjust-half figures to the books.
func (s *Stats) addAdjust(r *Result) {
	s.TotalTransformRounds += int64(r.TransformRounds)
	s.RepairInserted += int64(r.RepairInserted)
	s.RepairRemoved += int64(r.RepairRemoved)
}

// routeOut is the route-phase outcome of one op: the measured access path
// plus any Get/Scan read.
type routeOut struct {
	route   skipgraph.RouteResult
	err     error // the routing error of an unmeasurable path
	found   bool
	val     []byte
	ver     int64
	entries []skipgraph.Entry
	nanos   int64 // wall time of the route-phase work; 0 without a Tracer
}

// routeOp performs the route-phase half of one op on the live graph. An
// unmeasurable access path (the endpoint may be joining in this very op, or
// already departed) is recorded as a miss; Get reads the value; Scan is a
// pure read with no path.
func (e *Engine) routeOp(op core.Op) routeOut {
	var out routeOut
	g := e.dsg.Graph()
	if op.Kind == core.OpScan {
		out.entries = g.ScanFrom(skipgraph.KeyOf(op.Dst), max(op.Limit, 1))
		return out
	}
	// A route that ran into a corpse comes back with the path so far; a miss
	// has no path sample.
	if r, err := g.RouteKeys(skipgraph.KeyOf(op.Src), skipgraph.KeyOf(op.Dst)); err != nil {
		out.err = err
	} else {
		out.route = r
	}
	if op.Kind == core.OpGet {
		out.val, out.ver, out.found = g.GetValue(skipgraph.KeyOf(op.Dst))
	}
	return out
}
