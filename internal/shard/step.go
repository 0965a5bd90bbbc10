package shard

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lsasg/internal/core"
	"lsasg/internal/obs"
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

	// tail counts the adjustment running behind an answer on this shard (0
	// or 1): the adjust half of the leg serve left pending. rounds is what
	// it leaves for settle: its ρ.
	tail    sync.WaitGroup
	pending legResult
	rounds  int64

	// height and dummies are the graph's height and dummy count as of the
	// end of the shard's last legs, tail, crash or membership batch: what
	// Service.Peek reads without waiting for the shard.
	height, dummies atomic.Int64
}

// legResult is one leg served on a shard: the step's result, measured in
// the graph every earlier leg left, and its span figures. Its Miss, on any
// kind, is the routing error of an access path unmeasurable at route time:
// an endpoint not yet joined (a Put of a brand-new key), gone or dead (a
// Delete or a crash took it), so that only the distance sample is absent.
type legResult struct {
	core.OpResult
	Op         core.Op
	Epoch      int64 // mutations applied to the shard before the leg routed
	RouteNanos int64 // the route half's wall time; only with a Tracer
}

// publish ends a stretch of work on the shard — its legs, tail, crash or
// membership batch: it stores the figures Service.Peek reads.
func (sl *slot) publish() {
	sl.height.Store(int64(sl.dsg.Graph().Height()))
	sl.dummies.Store(int64(sl.dsg.DummyCount()))
}

// serve runs the step over the shard's legs of one window, in order: each
// leg's route half, then its adjust half, then its result appended to res.
// A failing leg reports nothing, and the legs before
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
			sl.adjustHalf(&r)
		}
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
	sl.adjustHalf(r)
	sl.rounds += int64(r.TransformRounds)
	*r = legResult{}
	sl.publish()
	sl.tail.Done()
}

// routeHalf is the first half of the step on the live graph
// (core.DSG.Access): route the op — repairing a crashed intermediate it
// contacts — take a Get's or Scan's read, and apply its write. It returns
// the op's result without the adjust fields.
func (sl *slot) routeHalf(op core.Op) (legResult, error) {
	var start time.Time
	if sl.tr != nil {
		start = time.Now()
	}
	r := legResult{Op: op, Epoch: sl.epoch}
	var err error
	if r.OpResult, err = sl.dsg.Access(op); err != nil {
		return legResult{}, fmt.Errorf("shard: op at epoch %d (%s %d→%d): %w", r.Epoch, op.Kind, op.Src, op.Dst, err)
	}
	if sl.tr != nil {
		d := time.Since(start)
		r.RouteNanos = int64(d)
		sl.tr.ObserveStage(obs.StageRouteLeg, d)
	}
	sl.epoch++
	return r, nil
}

// adjustHalf is the second half of the step: the op's transformation and
// scoped repair (core.DSG.AdjustAccess), filling r's adjust fields. A leg
// the route half reported as a miss adjusts nothing.
func (sl *slot) adjustHalf(r *legResult) {
	var start time.Time
	if sl.tr != nil {
		start = time.Now()
	}
	r.AdjustResult = sl.dsg.AdjustAccess(r.Op)
	if sl.tr != nil {
		sl.tr.ObserveStage(obs.StageAdjustApply, time.Since(start))
	}
}
