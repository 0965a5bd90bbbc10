package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lsasg/internal/core"
	"lsasg/internal/obs"
	"lsasg/internal/skipgraph"
)

// Config parameterizes an Engine.
type Config struct {
	// Parallelism is the number of routing workers used by Serve. Values < 1
	// mean 1.
	Parallelism int
	// BatchSize is the number of requests routed before their adjustments
	// are applied. Values < 1 mean 32.
	BatchSize int
	// OnResult, when non-nil, observes every request served by Serve, in
	// sequence order (the deterministic order, independent of Parallelism).
	OnResult func(r Result)
	// TolerateAdjustMiss, when true, lets a route op whose endpoint is
	// unknown (core.ErrUnknownNode) or crashed (core.ErrCrashedNode) record
	// a RouteMiss / zero adjustment instead of aborting the run. A sharded
	// service sets it: the data plane mutates membership mid-window, so a
	// route leg whose endpoint a Delete removed earlier in the stream is
	// expected, not an engine fault. Error-free streams behave identically
	// with or without it.
	TolerateAdjustMiss bool
	// Tracer, when non-nil, turns on the observability layer
	// (internal/obs): stage latency histograms around the batch pipeline
	// (route leg, adjust apply) and the per-op route timing
	// (Result.RouteNanos). Whole-op spans and per-verb latency belong to
	// the dispatcher that assembles an op's legs (shard.Service), not to
	// the engine. A nil tracer keeps the hot path timing-free — the cost is
	// one predictable branch per choke point. Wall-clock measurements never
	// feed Stats, so tracing cannot perturb the deterministic contracts.
	Tracer *obs.Tracer
}

func (c Config) parallelism() int {
	if c.Parallelism < 1 {
		return 1
	}
	return c.Parallelism
}

func (c Config) batchSize() int {
	if c.BatchSize < 1 {
		return 32
	}
	return c.BatchSize
}

// Result reports one request served by the Serve pipeline: the routing half
// (and any Get/Scan read) measured in the graph as its batch found it, the
// adjustment half from the batch's adjust phase.
type Result struct {
	Seq   int64   // 0-based position in the run's request sequence
	Op    core.Op // the request envelope
	Epoch int64   // batches (Apply*Idle calls included) applied before the request routed

	RouteDistance int // d_S(σ) at route time
	RouteHops     int
	// RouteMiss marks a KV op whose access path could not be measured at
	// route time (an endpoint not yet joined or already gone — e.g. a Put
	// of a brand-new key routes before its own adjustment joins it). The
	// data outcome is unaffected; only the distance sample is absent.
	// A tolerant engine (TolerateAdjustMiss) marks a route whose endpoint
	// is gone or dead the same way. RouteErr is the routing error behind
	// the miss, nil otherwise.
	RouteMiss bool
	RouteErr  error
	// AdjustLag is the number of adjustments pending when the request was
	// routed (its own included): a batch routes whole before any of it
	// adjusts, so the lag is the request's 1-based position within its
	// batch.
	AdjustLag int

	// RouteNanos is the wall-clock duration of the op's route-phase work
	// (route plus any Get/Scan read). Populated only when the engine has a
	// Tracer; exempt from the determinism contracts and never fed into
	// Stats.
	RouteNanos int64

	TransformRounds int
	DirectLevel     int
	Alpha           int
	HeightAfter     int
	RepairInserted  int
	RepairRemoved   int

	// KV outcome. Get and Scan report the route-phase read (the epoch above
	// is the read point); Put and Delete report the adjuster's outcome.
	Found   bool              // OpGet: key present with a value
	Value   []byte            // OpGet: the value read (immutable)
	Version int64             // OpGet: version read; OpPut: version written
	Existed bool              // OpPut: overwrote; OpDelete: removed something
	Entries []skipgraph.Entry // OpScan: the entries read
}

// Stats aggregates one Serve run. Every field is deterministic for a fixed
// seed and batch schedule: identical across Parallelism settings.
type Stats struct {
	Requests int64
	Batches  int64 // route-then-adjust rounds: ⌈Requests / BatchSize⌉

	TotalRouteDistance   int64
	MaxRouteDistance     int
	TotalRouteHops       int64
	TotalTransformRounds int64
	TotalAdjustLag       int64
	MaxAdjustLag         int
	RepairInserted       int64
	RepairRemoved        int64

	// KV op counters. Gets/Puts/Deletes/Scans count ops by kind (Requests
	// counts every op, routes included); hits and inserts split the outcomes;
	// ScannedEntries totals entries returned across scans; RouteMisses counts
	// KV ops whose access path was unmeasurable at route time.
	Gets           int64
	GetHits        int64
	Puts           int64
	PutInserts     int64 // puts that joined a new key (vs updated in place)
	Deletes        int64
	DeleteHits     int64
	Scans          int64
	ScannedEntries int64
	RouteMisses    int64

	HeightAfter int // live-graph height after the final batch
}

// MeanRouteDistance returns the mean routing distance per request.
func (s Stats) MeanRouteDistance() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.TotalRouteDistance) / float64(s.Requests)
}

// MeanAdjustLag returns the mean number of pending adjustments at route
// time: (k+1)/2 over full batches of k, since op i of a batch routes with
// its own and the i-1 adjustments before it still to come.
func (s Stats) MeanAdjustLag() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.TotalAdjustLag) / float64(s.Requests)
}

// Engine serves communication requests over one DSG through the batch
// pipeline. The DSG must not be touched by anyone else while a Serve or
// ServeSlice call runs, and between them only through the Apply*Idle entry
// points, which reserve the engine the same way.
type Engine struct {
	dsg *core.DSG
	cfg Config

	// epoch counts the mutation batches applied so far: one per served
	// batch and one per Apply*Idle call. Owned by whoever holds busy.
	epoch int64

	// busy is set while a Serve, ServeSlice or Apply*Idle call owns the
	// live graph.
	busy atomic.Bool

	// routes and adj are the batch step's scratch — the route-phase
	// outcomes and adjust-phase results of the batch in flight — reused so
	// a steady-state batch allocates nothing of its own.
	routes []routeOut
	adj    []core.OpResult
}

// New creates an engine over the DSG. The scoped repairs behind every
// adjustment assume a globally a-balanced starting point, so New runs the
// global balance repair once (a no-op on an already-balanced graph).
func New(d *core.DSG, cfg Config) *Engine {
	d.RepairBalance()
	return &Engine{dsg: d, cfg: cfg}
}

// acquire reserves the live graph for one Serve, ServeSlice or Apply*Idle
// call; overlapping callers get an error instead of racing the owner.
func (e *Engine) acquire(what string) error {
	if !e.busy.CompareAndSwap(false, true) {
		return fmt.Errorf("serve: %s on an engine that is already serving", what)
	}
	return nil
}

func (e *Engine) release() { e.busy.Store(false) }

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
// cancelled) and returns the aggregate statistics. Requests are processed
// in batches of BatchSize, each batch in two phases on the live graph. Route
// phase: the whole batch is routed by Parallelism workers — Get and Scan
// take their reads here too — and nothing mutates the graph meanwhile, so
// every op of the batch observes the state the previous batch left. Adjust
// phase: the batch's mutations are applied in sequence order (KV writes
// flow through the same transformation and scoped repair as routes; see
// core.ApplyOp). Batches are filled to BatchSize (blocking on the channel)
// so the batch schedule — and with it every statistic — is a pure function
// of the request sequence, independent of Parallelism and of producer
// timing. An invalid route op aborts with an error (KV ops are total and
// never do). A batch whose route phase fails applies none of its ops; one
// that fails in its adjust phase keeps the ops before the failing one.
// Already-applied batches stay applied.
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
	// channel and can drain a few requests first.
	if err := ctx.Err(); err != nil {
		return st, err
	}
	k := e.cfg.batchSize()
	batch := make([]core.Op, 0, k)
	for {
		batch = batch[:0]
		stop := false
		for len(batch) < k && !stop {
			select {
			case <-ctx.Done():
				stop = true
			case p, ok := <-in:
				if !ok {
					stop = true
					break
				}
				batch = append(batch, p)
			}
		}
		if len(batch) > 0 {
			if err := e.serveBatch(batch, &st); err != nil {
				return st, err
			}
		}
		if stop {
			st.HeightAfter = e.dsg.Graph().Height()
			// A producer that follows the documented pattern closes the
			// channel once ctx is cancelled, and the select above may see
			// either first; report the cancellation whichever it was.
			return st, ctx.Err()
		}
	}
}

// ServeSlice is Serve for a caller that already holds the ops: it serves
// them in batches of BatchSize — the same batch step, the same schedule a
// channel delivering exactly these ops and then closing would get — and
// adds the run to st. The sharded dispatcher serves each window's legs
// this way. On an error the batches before the failing one stay applied
// and counted.
func (e *Engine) ServeSlice(ops []core.Op, st *Stats) error {
	if err := e.acquire("ServeSlice"); err != nil {
		return err
	}
	defer e.release()
	k := e.cfg.batchSize()
	for len(ops) > 0 {
		batch := ops[:min(k, len(ops))]
		if err := e.serveBatch(batch, st); err != nil {
			return err
		}
		ops = ops[len(batch):]
	}
	return nil
}

// serveBatch is one route-then-adjust round: it routes the whole batch on
// the live graph, applies its adjustments in order, and reports one Result
// per op to st and OnResult. A failing batch reports nothing.
func (e *Engine) serveBatch(batch []core.Op, st *Stats) error {
	if cap(e.routes) < len(batch) {
		e.routes = make([]routeOut, len(batch))
	}
	routes := e.routes[:len(batch)]
	if err := e.routeBatch(batch, routes); err != nil {
		return err
	}
	tr := e.cfg.Tracer
	var started time.Time
	if tr != nil {
		started = time.Now()
	}
	adj, err := e.applyOps(batch)
	if tr != nil {
		tr.ObserveStage(obs.StageAdjustApply, time.Since(started))
	}
	if err != nil {
		return err
	}
	st.Batches++
	for i := range batch {
		r := Result{
			Seq:             st.Requests,
			Op:              batch[i],
			Epoch:           e.epoch,
			RouteDistance:   routes[i].route.Distance(),
			RouteHops:       routes[i].route.Hops(),
			RouteMiss:       routes[i].err != nil,
			RouteErr:        routes[i].err,
			AdjustLag:       i + 1,
			RouteNanos:      routes[i].nanos,
			TransformRounds: adj[i].TransformRounds,
			DirectLevel:     adj[i].DirectLevel,
			Alpha:           adj[i].Alpha,
			HeightAfter:     adj[i].HeightAfter,
			RepairInserted:  adj[i].RepairInserted,
			RepairRemoved:   adj[i].RepairRemoved,
			Version:         adj[i].Version,
			Existed:         adj[i].Existed,
		}
		switch batch[i].Kind {
		case core.OpGet:
			// The documented read point is the route phase, not the
			// graph mid-adjustment.
			r.Found, r.Value, r.Version = routes[i].found, routes[i].val, routes[i].ver
		case core.OpScan:
			r.Entries = routes[i].entries
		}
		st.accumulate(r)
		if e.cfg.OnResult != nil {
			e.cfg.OnResult(r)
		}
	}
	e.epoch++
	return nil
}

func (s *Stats) accumulate(r Result) {
	s.Requests++
	s.TotalRouteDistance += int64(r.RouteDistance)
	s.TotalRouteHops += int64(r.RouteHops)
	if r.RouteDistance > s.MaxRouteDistance {
		s.MaxRouteDistance = r.RouteDistance
	}
	s.TotalTransformRounds += int64(r.TransformRounds)
	s.TotalAdjustLag += int64(r.AdjustLag)
	if r.AdjustLag > s.MaxAdjustLag {
		s.MaxAdjustLag = r.AdjustLag
	}
	s.RepairInserted += int64(r.RepairInserted)
	s.RepairRemoved += int64(r.RepairRemoved)
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

// applyOps is the adjust phase of one batch. Without TolerateAdjustMiss it
// is exactly core.ApplyOps (strict, legacy error text). With it, a route op
// that fails on a vanished or crashed endpoint — the data plane removed it
// earlier in the stream — yields a zero result and the batch continues.
func (e *Engine) applyOps(ops []core.Op) ([]core.OpResult, error) {
	if !e.cfg.TolerateAdjustMiss {
		return e.dsg.ApplyOps(ops)
	}
	results := e.adj[:0]
	for i, op := range ops {
		r, err := e.dsg.ApplyOp(op)
		if err != nil {
			if op.Kind == core.OpRoute && (errors.Is(err, core.ErrUnknownNode) || errors.Is(err, core.ErrCrashedNode)) {
				results = append(results, core.OpResult{})
				continue
			}
			return results, fmt.Errorf("core: batch op %d (%s %d→%d): %w", i, op.Kind, op.Src, op.Dst, err)
		}
		results = append(results, r)
	}
	e.adj = results
	return results, nil
}

// routeOut is the route-phase outcome of one op: the measured access path
// plus any Get/Scan read.
type routeOut struct {
	route   skipgraph.RouteResult
	err     error // the tolerated routing error of an unmeasurable path
	found   bool
	val     []byte
	ver     int64
	entries []skipgraph.Entry
	nanos   int64 // wall time of the route-phase work; 0 without a Tracer
}

// routeOp performs the route-phase half of one op on the live graph, which
// nothing mutates until the whole batch has routed. OpRoute keeps the strict
// legacy contract — a route failure aborts the batch. KV point ops tolerate
// an unmeasurable access path (the endpoint may be joining in this very
// batch, or already departed) and record a miss instead; Get reads the
// value; Scan is a pure read with no path.
func (e *Engine) routeOp(op core.Op) (routeOut, error) {
	var out routeOut
	g := e.dsg.Graph()
	if op.Kind == core.OpScan {
		out.entries = g.ScanFrom(skipgraph.KeyOf(op.Dst), max(op.Limit, 1))
		return out, nil
	}
	r, err := g.RouteKeys(skipgraph.KeyOf(op.Src), skipgraph.KeyOf(op.Dst))
	switch {
	case err == nil:
		out.route = r
	case op.Kind == core.OpRoute && !e.cfg.TolerateAdjustMiss:
		return out, fmt.Errorf("serve: routing %d→%d (epoch %d): %w", op.Src, op.Dst, e.epoch, err)
	default:
		out.err = err
	}
	if op.Kind == core.OpGet {
		out.val, out.ver, out.found = g.GetValue(skipgraph.KeyOf(op.Dst))
	}
	return out, nil
}

// routeOpTraced wraps routeOp with the per-leg wall clock when tracing is
// on; with a nil tracer it is routeOp plus one branch.
func (e *Engine) routeOpTraced(op core.Op) (routeOut, error) {
	tr := e.cfg.Tracer
	if tr == nil {
		return e.routeOp(op)
	}
	start := time.Now()
	out, err := e.routeOp(op)
	d := time.Since(start)
	out.nanos = int64(d)
	tr.ObserveStage(obs.StageRouteLeg, d)
	return out, err
}

// routeBatch routes every op of the batch on the live graph, fanning the
// work over the configured number of workers. results[i] corresponds to
// batch[i], so the outcome is independent of worker scheduling.
func (e *Engine) routeBatch(batch []core.Op, results []routeOut) error {
	p := e.cfg.parallelism()
	if p > len(batch) {
		p = len(batch)
	}
	if p == 1 {
		tr := e.cfg.Tracer
		if tr == nil {
			for i, op := range batch {
				r, err := e.routeOp(op)
				if err != nil {
					return err
				}
				results[i] = r
			}
			return nil
		}
		// Chained clock: op i's end timestamp doubles as op i+1's start, so
		// the sequential hot path pays one clock read per op instead of two.
		// The loop body between reads is a few stores — the skew is noise
		// next to any op the histograms can resolve.
		prev := time.Now()
		for i, op := range batch {
			r, err := e.routeOp(op)
			if err != nil {
				return err
			}
			now := time.Now()
			d := now.Sub(prev)
			prev = now
			r.nanos = int64(d)
			tr.ObserveStage(obs.StageRouteLeg, d)
			results[i] = r
		}
		return nil
	}
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		errOnce sync.Once
		outErr  error
	)
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(batch) {
					return
				}
				r, err := e.routeOpTraced(batch[i])
				if err != nil {
					errOnce.Do(func() { outErr = err })
					return
				}
				results[i] = r
			}
		}()
	}
	wg.Wait()
	return outErr
}
