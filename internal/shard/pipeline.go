package shard

import (
	"context"
	"fmt"
	"sync"
	"time"

	"lsasg/internal/core"
	"lsasg/internal/obs"
	"lsasg/internal/skipgraph"
)

// This file is the window driver behind Serve and Apply (see the package
// doc). Every statistic is a pure function of the request sequence and the
// configuration — independent of how the shards are scheduled and of
// producer timing — because each shard's leg sequence and every planner
// input is fixed by the dispatch order; and since a leg reads and writes its
// own shard's graph only, a window returns what serving its ops one by one
// returns.
//
// KV ops ride the same leg machinery. A point op (Get/Put/Delete) becomes
// an origin-side route leg to the exit boundary (when non-trivial) plus the
// op itself dispatched to the destination shard with the entry boundary as
// its access source — so the access adapts both shards' topologies exactly
// like a cross-shard route. A Scan fans one scan leg to every shard whose
// range intersects [start, ∞); the dispatcher remembers every leg as (shard,
// position in that shard's slice) and stitches the results in shard order
// (= key order) once the window has been served — which is what makes
// multi-shard scans deterministic although the shards run concurrently.
// Outcomes are delivered to Config.OnOutcome in dispatch order.

// ServeStats is one set of books: a Serve run's or one Apply's, and — in
// the same shape — the service's lifetime books (Totals, Peek), which every
// run and every Apply folds its op-sequence figures into. All fields are
// deterministic for a fixed seed, shard count, and request sequence.
type ServeStats struct {
	Requests int64
	Intra    int64 // requests resolved inside one shard
	Cross    int64 // requests spanning shards (routed via boundaries / fanned)
	Legs     int64 // shard legs dispatched

	Rebalances int64 // migrations executed at window barriers
	MovedKeys  int64 // keys moved across shards

	// TotalRouteDistance/Hops span whole requests: leg distances measured in
	// the shards' graphs, plus the boundary intermediates and the one
	// inter-shard forwarding hop of each cross-shard request.
	TotalRouteDistance int64
	TotalRouteHops     int64
	// MaxLegDistance is the worst single-leg distance (per-leg, not
	// per-request: the legs of one cross-shard request are served by
	// different shards).
	MaxLegDistance int64

	TotalTransformRounds int64

	// KV op counters, at request granularity (a scan fanned over three
	// shards is one Scan). Hits/inserts come from the stitched outcomes;
	// RouteMisses sums the legs' unmeasurable access paths.
	Gets           int64
	GetHits        int64
	Puts           int64
	PutInserts     int64
	Deletes        int64
	DeleteHits     int64
	Scans          int64
	ScannedEntries int64
	RouteMisses    int64

	// The figures below are per run; the lifetime books do not fold them.
	// Windows counts the non-empty load windows the run spanned.
	// LoadRatioFirst/Last are the max/mean shard-load ratios of the first
	// non-empty window and the last *full* window — the skew the rebalancer
	// saw before acting and the skew it left behind. A trailing partial
	// window (the stream rarely ends exactly on a window boundary) holds too
	// few requests for its ratio to mean anything, so it only counts when no
	// full window exists at all.
	Windows        int64
	LoadRatioFirst float64
	LoadRatioLast  float64

	Height     int // tallest shard after the run
	DummyCount int // summed over shards
}

// add folds the op-sequence figures of one finished run (or one synchronous
// op) into b.
func (b *ServeStats) add(st *ServeStats) {
	b.Requests += st.Requests
	b.Intra += st.Intra
	b.Cross += st.Cross
	b.Legs += st.Legs
	b.Rebalances += st.Rebalances
	b.MovedKeys += st.MovedKeys
	b.TotalRouteDistance += st.TotalRouteDistance
	b.TotalRouteHops += st.TotalRouteHops
	b.MaxLegDistance = max(b.MaxLegDistance, st.MaxLegDistance)
	b.TotalTransformRounds += st.TotalTransformRounds
	b.Gets += st.Gets
	b.GetHits += st.GetHits
	b.Puts += st.Puts
	b.PutInserts += st.PutInserts
	b.Deletes += st.Deletes
	b.DeleteHits += st.DeleteHits
	b.Scans += st.Scans
	b.ScannedEntries += st.ScannedEntries
	b.RouteMisses += st.RouteMisses
}

// Outcome is one request's assembled result, delivered to Config.OnOutcome
// in dispatch order — every op produces exactly one, routes included. Op is
// the original envelope as the caller dispatched it. Point ops carry the
// destination leg's result; scans carry the stitched, limit-truncated
// entries.
type Outcome struct {
	Op      core.Op
	Found   bool
	Value   []byte
	Version int64
	Existed bool
	Entries []skipgraph.Entry

	// RouteDistance and RouteHops sum the paths of the op's outcome legs —
	// both legs of a route, the destination-shard leg of a point op —
	// measured in the shards' graphs, plus the boundary intermediates and
	// forwarding hops of a cross-shard access; 0 for scans, which read
	// without routing.
	RouteDistance int
	RouteHops     int
	// TransformRounds sums ρ over the same legs; Alpha and DirectLevel
	// describe the last of them, the destination-side transformation. All
	// three are zero when the window delivered before its adjustments ran
	// (see Apply).
	TransformRounds int
	Alpha           int
	DirectLevel     int

	// Err is the routing error of a route op one of whose endpoints was
	// unknown or dead at route time (its path sample is absent and it
	// adjusted nothing); nil otherwise. Serve carries on past such an op;
	// Apply returns the error.
	Err error
}

// legRef names one leg of the window in flight: the shard that serves it and
// its position in that shard's leg slice, which is also its position in the
// shard's results.
type legRef struct{ shard, idx int }

// pendingReq is one collected op awaiting its leg results.
type pendingReq struct {
	seq int64   // 1-based position in the service's lifetime request sequence
	op  core.Op // original envelope
	// first and n locate the op's legs in window.refs (scans and cross-shard
	// ops have more than one). Its outcome is assembled from those from
	// first+origin on: origin is 1 when the first leg is a cross-shard point
	// op's origin-side access leg, which adapts the source shard but is not
	// part of the outcome.
	first, n, origin int
	// extraDist/extraHops are the dispatcher-side path contributions of a
	// cross-shard op — boundary intermediates and forwarding hops — folded
	// into the outcome on top of the legs' measurements. An op is
	// cross-shard exactly when it has a forwarding hop.
	extraDist int
	extraHops int
}

// window is the dispatcher's scratch for the ops served together: reused
// from window to window, so a steady-state window allocates nothing.
type window struct {
	pending []pendingReq
	refs    []legRef
	// legs[i] is shard i's leg slice in dispatch order; res[i][j] is the
	// result of legs[i][j], appended by shard i's step; errs[i] is shard i's
	// failure.
	legs [][]core.Op
	res  [][]legResult
	errs []error
}

func newWindow(shards int) window {
	return window{
		legs: make([][]core.Op, shards),
		res:  make([][]legResult, shards),
		errs: make([]error, shards),
	}
}

// reset empties the window, dropping the payloads its slots still point at.
func (w *window) reset() {
	w.pending, w.refs = w.pending[:0], w.refs[:0]
	for i := range w.legs {
		clear(w.legs[i])
		clear(w.res[i])
		w.legs[i], w.res[i] = w.legs[i][:0], w.res[i][:0]
	}
	clear(w.errs)
}

// addLeg queues one leg on a shard.
func (w *window) addLeg(shard int, op core.Op) legRef {
	w.legs[shard] = append(w.legs[shard], op)
	return legRef{shard: shard, idx: len(w.legs[shard]) - 1}
}

// Serve consumes op envelopes until the channel closes (or ctx is
// cancelled), serves them window by window — see serveWindow — and returns
// the aggregate statistics. A window is what the load window still has room
// for (RebalanceEvery ops when it starts empty): Serve blocks on the channel
// until it has that many, or the stream ends, so the windows are a function
// of the request sequence alone. One shard has nothing to run side by side,
// so at S = 1 every window is one op and a synchronous client of a one-shard
// service waits for its own op only. Serve's windows adjust before they
// deliver, so only an Apply leaves an adjustment behind its answer; Serve
// settles those before its own legs use their shards, and every shard before
// it returns.
//
// Serve returns what calling Apply on each op in turn returns — outcomes,
// books, topology — and at S > 1 does it in less wall-clock time. It rejects
// overlapping calls. Producers should select on the same ctx for every send.
// An invalid op ends the run with its error once the ops before it have
// been served; so does a failed step or a failed barrier.
func (s *Service) Serve(ctx context.Context, in <-chan core.Op) (ServeStats, error) {
	if err := s.reserve("Serve"); err != nil {
		return ServeStats{}, err
	}
	defer s.serving.Store(false)

	var st ServeStats
	// A context dead on arrival serves nothing, deterministically.
	if err := ctx.Err(); err != nil {
		return st, err
	}
	var (
		ops    []core.Op
		retErr error
	)
	for done := false; !done; {
		room := 1
		if len(s.shards) > 1 {
			room = s.cfg.rebalanceEvery() - s.loadOps
		}
		ops, done, retErr = s.collect(ctx, in, ops[:0], room)
		if _, err := s.serveWindow(ops, &st, false); err != nil {
			done = true
			if retErr == nil {
				retErr = err
			}
		}
	}
	if st.Requests > 0 && s.loadOps > 0 {
		st.noteWindow(loadRatio(s.dir.Load(), s.keyLoad), false)
	}
	st.Height = s.Height()
	st.DummyCount = s.DummyCount()
	s.books.add(&st)
	if retErr == nil {
		// A producer that follows the documented pattern closes the channel
		// once ctx is cancelled, and collect may see either first; report
		// the cancellation whichever it was.
		retErr = ctx.Err()
	}
	return st, retErr
}

// collect appends up to limit valid ops off the channel to ops. It reports
// whether the stream ended — closed, cancelled, or on an invalid op, whose
// error it returns.
func (s *Service) collect(ctx context.Context, in <-chan core.Op, ops []core.Op, limit int) ([]core.Op, bool, error) {
	for ; limit > 0; limit-- {
		select {
		case <-ctx.Done():
			return ops, true, ctx.Err()
		case op, ok := <-in:
			if !ok {
				return ops, true, nil
			}
			if err := op.Check(s.n); err != nil {
				return ops, true, err
			}
			ops = append(ops, op)
		}
	}
	return ops, false, nil
}

// serveWindow is the one driver, behind Serve and Apply alike: it serves
// ops — valid, and no more than the load window has room for — as one
// window. Dispatch splits them into leg slices in order; the busy shards
// run the step over their slices side by side; the outcomes are assembled
// and delivered in dispatch order; and when that fills the load window, the
// planner inspects its per-key loads at the barrier — every shard settled —
// and at most one contiguous range migrates, values riding with their keys,
// between adjacent shards. It returns the last delivered outcome.
//
// With behind set, on more than one shard, and when no barrier follows, the
// window ends once every leg has routed: each busy shard finishes its last
// leg's adjustment behind the answer (see run). One shard keeps every
// adjustment inline — a one-shard service has nothing to overlap it with,
// and moving it to another core costs more than it hides.
//
// An op one of whose legs a shard failed to serve has no outcome: the
// window stops delivering there, takes the undelivered ops back out of the
// load window — st counts delivered ops only — and returns the step's
// error. A failed migration comes after the window was served, counted and
// observed, so it is returned wrapping ErrBarrier next to a valid outcome.
func (s *Service) serveWindow(ops []core.Op, st *ServeStats, behind bool) (Outcome, error) {
	dir := s.dir.Load()
	s.win.reset()
	for _, op := range ops {
		s.dispatch(dir, op)
	}
	barrier := s.loadOps >= s.cfg.rebalanceEvery()
	err := s.run(behind && len(s.shards) > 1 && !barrier)
	last, delivered := s.deliver(st)
	if err != nil {
		for _, op := range ops[delivered:] {
			s.feedLoad(op, -1)
		}
		return last, err
	}
	if barrier {
		st.noteWindow(loadRatio(dir, s.keyLoad), true)
		s.settleAll()
		err := s.rebalance(dir, st)
		s.resetLoad()
		if err != nil {
			return last, fmt.Errorf("%w after its ops were served: %w", ErrBarrier, err)
		}
	}
	return last, nil
}

// noteWindow books one load window's max/mean shard-load ratio: a full one
// at its barrier, the partial one a run ends in when the run returns.
func (st *ServeStats) noteWindow(ratio float64, full bool) {
	st.Windows++
	if st.LoadRatioFirst == 0 {
		st.LoadRatioFirst = ratio
	}
	if full || st.Windows == 1 {
		st.LoadRatioLast = ratio
	}
}

// resetLoad starts a fresh load window.
func (s *Service) resetLoad() {
	clear(s.keyLoad)
	s.loadOps = 0
}

// feedLoad counts one op's endpoints into the load window (delta 1), or
// takes them out again (delta -1).
func (s *Service) feedLoad(op core.Op, delta int64) {
	if op.Kind != core.OpScan {
		s.keyLoad[op.Src] += delta
	}
	s.keyLoad[op.Dst] += delta
	s.loadOps += int(delta)
}

// rebalance runs the planner over the load window at its barrier — every
// shard settled, the window's loads where the dispatcher wrote them — and
// executes the migration it plans, if any, booking it in st.
func (s *Service) rebalance(dir *Directory, st *ServeStats) error {
	plan, ok := planRebalance(dir, s.keyLoad)
	if !ok {
		return nil
	}
	return s.executeMigration(dir, plan, st)
}

// dispatch splits one op into shard legs, queues them on the window, counts
// its endpoints into the load window, and updates the liveness book for a
// Put's or Delete's key, so the ops dispatched behind it in the same window
// already split at the boundaries it leaves. The op's figures reach st when
// it is delivered (count), so an op a shard failed to serve is counted
// nowhere.
func (s *Service) dispatch(dir *Directory, op core.Op) {
	w := &s.win
	s.feedLoad(op, 1)
	p := pendingReq{op: op, first: len(w.refs)}
	switch op.Kind {
	case core.OpRoute, core.OpGet, core.OpPut, core.OpDelete:
		switch op.Kind {
		case core.OpPut:
			s.live[op.Dst] = true
		case core.OpDelete:
			s.live[op.Dst] = false
		}
		legs, n, cross := dir.splitLegs(s.live, op.Src, op.Dst)
		if cross {
			// One inter-shard forwarding hop; each non-trivial leg ends (or
			// starts) at a boundary node, which is an intermediate of the
			// whole-request path.
			p.extraDist, p.extraHops = n, 1
		}
		point := op.Kind != core.OpRoute
		if point {
			// A point op's last leg is the op itself on the destination
			// shard, entering at that leg's source — at its own key when the
			// entry leg is trivial. A leg before it is the origin-side route:
			// it adapts the source shard, and the outcome is the destination
			// leg's alone.
			if n == 0 || legs[n-1].dst != op.Dst {
				legs[n] = leg{shard: dir.ShardOf(op.Dst), src: op.Dst, dst: op.Dst}
				n++
			}
			p.origin = n - 1
		}
		for i, l := range legs[:n] {
			lop := core.RouteOp(l.src, l.dst)
			if point && i == n-1 {
				lop = op
				lop.Src = l.src
			}
			w.refs = append(w.refs, w.addLeg(l.shard, lop))
		}

	case core.OpScan:
		first := dir.ShardOf(op.Dst)
		p.extraHops = dir.Shards() - first - 1 // shard-to-shard forwarding
		for i := first; i < dir.Shards(); i++ {
			lo, _ := dir.Range(i)
			// Every leg carries the full limit: a shard cannot know how many
			// entries its predecessors will contribute, and the stitch
			// truncates exactly.
			w.refs = append(w.refs, w.addLeg(i, core.Op{Kind: core.OpScan, Dst: max(op.Dst, lo), Limit: max(op.Limit, 1)}))
		}
	}
	p.n = len(w.refs) - p.first
	w.pending = append(w.pending, p)
}

// count books one delivered op in st, its legs' figures and the
// dispatcher's, and numbers it over the service's lifetime: books holds
// every finished run and synchronous op, st the call in flight.
func (s *Service) count(p *pendingReq, st *ServeStats) {
	w := &s.win
	st.Requests++
	p.seq = s.books.Requests + st.Requests
	if p.extraHops > 0 {
		st.Cross++
	} else {
		st.Intra++
	}
	st.Legs += int64(p.n)
	st.TotalRouteDistance += int64(p.extraDist)
	st.TotalRouteHops += int64(p.extraHops)
	for _, ref := range w.refs[p.first : p.first+p.n] {
		r := &w.res[ref.shard][ref.idx]
		st.TotalRouteDistance += int64(r.RouteDistance)
		st.TotalRouteHops += int64(r.RouteHops)
		st.MaxLegDistance = max(st.MaxLegDistance, int64(r.RouteDistance))
		st.TotalTransformRounds += int64(r.TransformRounds)
		if r.Miss != nil {
			st.RouteMisses++
		}
	}
	switch p.op.Kind {
	case core.OpGet:
		st.Gets++
	case core.OpPut:
		st.Puts++
	case core.OpDelete:
		st.Deletes++
	case core.OpScan:
		st.Scans++
	}
}

// run serves the window's legs: every shard with legs is settled, then
// runs the step over its slice — on a goroutine of its own when two or more
// shards are busy. With behind set, a busy shard's last leg stops after its
// route half: the legs route here, one shard after another — a route half
// is far too short to be worth a goroutine handoff, and the caller must not
// wait behind an adjustment for a core — and each shard's tail finishes the
// adjustment on a goroutine of its own, reserving the shard until settle.
// It returns the first failure in shard order.
func (s *Service) run(behind bool) error {
	w := &s.win
	busy, only := 0, 0
	for i := range w.legs {
		if len(w.legs[i]) > 0 {
			s.settle(i)
			busy++
			only = i
		}
	}
	switch {
	case behind:
		for i := range w.legs {
			if len(w.legs[i]) == 0 {
				continue
			}
			sl := s.shards[i]
			var pending bool
			if pending, w.errs[i] = sl.serve(w.legs[i], &w.res[i], true); pending {
				sl.tail.Add(1)
				go func() {
					if s.beforeTail != nil {
						s.beforeTail(i)
					}
					sl.finish()
				}()
			}
		}
	case busy == 1:
		_, w.errs[only] = s.shards[only].serve(w.legs[only], &w.res[only], false)
	case busy > 1:
		var wg sync.WaitGroup
		for i := range w.legs {
			if len(w.legs[i]) == 0 {
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, w.errs[i] = s.shards[i].serve(w.legs[i], &w.res[i], false)
			}()
		}
		wg.Wait()
	}
	for _, err := range w.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// deliver hands the window's outcomes to OnOutcome in dispatch order and
// returns the last one with their count. After a step's failure it stops at
// the first op one of whose legs never ran.
func (s *Service) deliver(st *ServeStats) (last Outcome, n int) {
	w := &s.win
	for i := range w.pending {
		p := &w.pending[i]
		for _, ref := range w.refs[p.first : p.first+p.n] {
			if ref.idx >= len(w.res[ref.shard]) {
				return last, i
			}
		}
		last = s.assemble(p, st)
		if s.cfg.OnOutcome != nil {
			s.cfg.OnOutcome(last)
		}
	}
	return last, len(w.pending)
}

// assemble builds one op's outcome from its legs' results — all present —
// and books the op in st and the tracer.
func (s *Service) assemble(p *pendingReq, st *ServeStats) Outcome {
	w := &s.win
	s.count(p, st)
	refs := w.refs[p.first+p.origin : p.first+p.n]
	o := Outcome{Op: p.op, RouteDistance: p.extraDist, RouteHops: p.extraHops}
	// The access-path view of the whole request: the legs' measurements on
	// top of the dispatcher's boundary/forwarding contributions.
	for _, ref := range refs {
		r := &w.res[ref.shard][ref.idx]
		o.RouteDistance += r.RouteDistance
		o.RouteHops += r.RouteHops
		o.TransformRounds += r.TransformRounds
		o.Alpha, o.DirectLevel = r.Alpha, r.DirectLevel
		if p.op.Kind == core.OpRoute && o.Err == nil {
			o.Err = r.Miss
		}
	}
	switch p.op.Kind {
	case core.OpScan:
		// refs run in shard order, which is key order.
		limit := max(p.op.Limit, 1)
		for _, ref := range refs {
			es := w.res[ref.shard][ref.idx].Entries
			es = es[:min(len(es), limit-len(o.Entries))]
			if o.Entries == nil {
				o.Entries = es // the first fragment is adopted, not copied
			} else {
				o.Entries = append(o.Entries, es...)
			}
		}
		st.ScannedEntries += int64(len(o.Entries))
	case core.OpGet, core.OpPut, core.OpDelete:
		r := &w.res[refs[0].shard][refs[0].idx]
		o.Found, o.Value, o.Version, o.Existed = r.Found, r.Value, r.Version, r.Existed
		switch {
		case p.op.Kind == core.OpGet && o.Found:
			st.GetHits++
		case p.op.Kind == core.OpPut && !o.Existed:
			st.PutInserts++
		case p.op.Kind == core.OpDelete && o.Existed:
			st.DeleteHits++
		}
	}
	if tr := s.cfg.Tracer; tr != nil && len(refs) > 0 {
		s.recordSpan(tr, p, refs, o)
	}
	return o
}

// recordSpan folds one assembled op's legs into the tracer: the whole-op
// verb latency (summed leg route time — queueing and the adjuster pass are
// excluded; the latter has its own stage histogram) and,
// when slow enough to matter, a slowest-ring span with the per-leg
// breakdown.
func (s *Service) recordSpan(tr *obs.Tracer, p *pendingReq, refs []legRef, o Outcome) {
	w := &s.win
	var total int64
	miss := false
	for _, ref := range refs {
		r := &w.res[ref.shard][ref.idx]
		total += r.RouteNanos
		miss = miss || r.Miss != nil
	}
	tr.ObserveOp(int64(p.op.Kind), time.Duration(total))
	if !tr.WouldRecord(total) {
		return
	}
	legs := make([]obs.LegSpan, len(refs))
	for i, ref := range refs {
		r := &w.res[ref.shard][ref.idx]
		legs[i] = obs.LegSpan{
			Shard:    int64(ref.shard),
			Distance: int64(r.RouteDistance),
			Hops:     int64(r.RouteHops),
			Epoch:    r.Epoch,
			Nanos:    r.RouteNanos,
		}
	}
	tr.RecordSpan(obs.Span{
		Seq:           p.seq,
		Kind:          int64(p.op.Kind),
		Src:           p.op.Src,
		Dst:           p.op.Dst,
		Start:         time.Now().UnixNano(),
		TotalNanos:    total,
		Epoch:         legs[0].Epoch,
		RouteDistance: int64(o.RouteDistance),
		RouteHops:     int64(o.RouteHops),
		RouteMiss:     miss,
		Cross:         len(refs) > 1 || p.extraHops > 0,
		Legs:          legs,
	})
}

// loadRatio computes the max/mean per-shard load ratio of one window.
func loadRatio(dir *Directory, keyLoad []int64) float64 {
	n := dir.Shards()
	var total, max int64
	for i := 0; i < n; i++ {
		lo, hi := dir.Range(i)
		var l int64
		for k := lo; k < hi; k++ {
			l += keyLoad[k]
		}
		total += l
		if l > max {
			max = l
		}
	}
	if total == 0 {
		return 0
	}
	return float64(max) * float64(n) / float64(total)
}
