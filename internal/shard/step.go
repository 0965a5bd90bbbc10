package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lsasg/internal/core"
	"lsasg/internal/obs"
	"lsasg/internal/skipgraph"
)

// slot is one shard: its live DSG and the step — route, then adjust, see the
// package doc — that serves its legs on it. Nothing else may touch the DSG
// while a window serves the shard's legs or its tail runs; between them the
// dispatcher owns it.
type slot struct {
	dsg *core.DSG
	tr  *obs.Tracer

	// epoch counts the mutations applied so far: one per leg served, crash
	// injected or membership batch applied. Spans carry it.
	epoch int64
	// books are the window's legs' figures, folded into ServeStats by run.
	books legBooks

	// tail counts the adjustment running behind an answer on this shard (0
	// or 1): the adjust half of the leg serve left pending. rounds and err
	// are what it leaves for settle: its ρ and its failure.
	tail    sync.WaitGroup
	pending legResult
	rounds  int64
	err     error

	// height and dummies are the graph's height and dummy count as of the
	// end of the shard's last legs, tail, crash or membership batch: what
	// Service.Gauges reads without waiting for the shard.
	height, dummies atomic.Int64
}

// legResult is one leg served on a shard: its Outcome, measured in the
// graph every earlier leg left, and its span figures. A leg's Err, on any
// kind, is the routing error of an access path unmeasurable at route time:
// an endpoint not yet joined (a Put of a brand-new key), gone or dead (a
// Delete or a crash took it), so that only the distance sample is absent.
type legResult struct {
	Outcome
	Epoch      int64 // mutations applied to the shard before the leg routed
	RouteNanos int64 // the route half's wall time; only with a Tracer
}

// legBooks are what the dispatcher reads of the legs a shard served.
type legBooks struct {
	routeDistance, routeHops, maxLeg, rounds, misses int64
}

func (b *legBooks) add(r *legResult) {
	b.routeDistance += int64(r.RouteDistance)
	b.routeHops += int64(r.RouteHops)
	b.maxLeg = max(b.maxLeg, int64(r.RouteDistance))
	b.rounds += int64(r.TransformRounds)
	if r.Err != nil {
		b.misses++
	}
}

func (sl *slot) publish() {
	sl.height.Store(int64(sl.dsg.Graph().Height()))
	sl.dummies.Store(int64(sl.dsg.DummyCount()))
}

// serve runs the step over the shard's legs of one window, in order: each
// leg's route half, then its adjust half, then its result appended to res
// and added to the books. A failing leg reports nothing, and the legs before
// it stay applied and reported. With behind set, the last leg stops after
// its route half: its result is reported with the adjust fields zero, and if
// it has an adjust half (a route, a Get or a Put) serve keeps it and returns
// pending — the caller runs it on the shard's tail (finish), and nothing may
// use the shard until settle has waited for that.
func (sl *slot) serve(legs []core.Op, res *[]legResult, behind bool) (pending bool, err error) {
	defer func() {
		if !pending {
			sl.publish()
		}
	}()
	for i, op := range legs {
		r, err := sl.routeHalf(op)
		if err != nil {
			return false, err
		}
		last := behind && i == len(legs)-1
		if !last {
			if err := sl.adjustHalf(&r); err != nil {
				return false, err
			}
		}
		sl.books.add(&r)
		*res = append(*res, r)
		if last && (op.Kind == core.OpRoute || op.Kind == core.OpGet || op.Kind == core.OpPut) {
			sl.pending = r
			return true, nil
		}
	}
	return false, nil
}

// finish runs the adjust half serve left pending and ends the shard's tail.
func (sl *slot) finish() {
	r := &sl.pending
	if sl.err = sl.adjustHalf(r); sl.err == nil {
		sl.rounds += int64(r.TransformRounds)
	}
	*r = legResult{}
	sl.publish()
	sl.tail.Done()
}

// routeHalf is the first half of the step on the live graph: route the op —
// Get and Scan take their reads here — and apply its write (a Put's value, a
// join included, and every Delete; see core.DSG.Write), everything that
// changes membership or what a later op can read. It returns the op's
// result without the adjust fields.
func (sl *slot) routeHalf(op core.Op) (legResult, error) {
	var start time.Time
	if sl.tr != nil {
		start = time.Now()
	}
	r := sl.routeOp(op)
	ver, existed, err := sl.dsg.Write(op)
	if err != nil {
		return legResult{}, opErr(&r, err)
	}
	if op.Kind == core.OpPut {
		r.Version = ver
	}
	r.Existed = existed
	if sl.tr != nil {
		d := time.Since(start)
		r.RouteNanos = int64(d)
		sl.tr.ObserveStage(obs.StageRouteLeg, d)
	}
	sl.epoch++
	return r, nil
}

// routeOp performs the route and the read of one op on the live graph. An
// unmeasurable access path (the endpoint may be joining in this very op, or
// already departed) is recorded as a miss; Get reads the value; Scan is a
// pure read with no path.
func (sl *slot) routeOp(op core.Op) legResult {
	r := legResult{Outcome: Outcome{Op: op}, Epoch: sl.epoch}
	g := sl.dsg.Graph()
	if op.Kind == core.OpScan {
		r.Entries = g.ScanFrom(skipgraph.KeyOf(op.Dst), max(op.Limit, 1))
		return r
	}
	// A route that ran into a corpse comes back with the path so far; a miss
	// has no path sample.
	if rt, err := g.RouteKeys(skipgraph.KeyOf(op.Src), skipgraph.KeyOf(op.Dst)); err != nil {
		r.Err = err
	} else {
		r.RouteDistance, r.RouteHops = rt.Distance(), rt.Hops()
	}
	if op.Kind == core.OpGet {
		r.Value, r.Version, r.Found = g.GetValue(skipgraph.KeyOf(op.Dst))
	}
	return r
}

// adjustHalf is the second half of the step: the op's transformation and
// scoped repair (core.DSG.AdjustAccess), filling r's adjust fields. A route
// whose endpoint is unknown or dead (core.ErrUnknownNode,
// core.ErrCrashedNode) is a miss that adjusts nothing, not a failure: the
// data plane changes membership mid-stream, so a route to a key a Delete
// removed earlier is expected.
func (sl *slot) adjustHalf(r *legResult) error {
	var start time.Time
	if sl.tr != nil {
		start = time.Now()
	}
	adj, err := sl.dsg.AdjustAccess(r.Op)
	if sl.tr != nil {
		sl.tr.ObserveStage(obs.StageAdjustApply, time.Since(start))
	}
	if err != nil {
		if r.Op.Kind != core.OpRoute || !(errors.Is(err, core.ErrUnknownNode) || errors.Is(err, core.ErrCrashedNode)) {
			return opErr(r, err)
		}
		adj = core.AdjustResult{}
	}
	r.TransformRounds = adj.TransformRounds
	r.DirectLevel = adj.DirectLevel
	r.Alpha = adj.Alpha
	return nil
}

func opErr(r *legResult, err error) error {
	return fmt.Errorf("shard: op at epoch %d (%s %d→%d): %w", r.Epoch, r.Op.Kind, r.Op.Src, r.Op.Dst, err)
}
