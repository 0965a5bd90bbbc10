package shard

import (
	"context"
	"fmt"
	"sort"
	"time"

	"lsasg/internal/core"
	"lsasg/internal/obs"
	"lsasg/internal/serve"
	"lsasg/internal/skipgraph"
)

// This file is the Serve pipeline: a sequential dispatcher splits the op
// stream into per-shard legs feeding S concurrent engine pipelines, and
// the rebalancer runs at engine-idle barriers between fixed-size request
// windows. Every statistic is a pure function of the request sequence and
// the configuration — independent of Parallelism, shard pipeline scheduling,
// and producer timing — because each shard's leg sequence, each engine's
// batch schedule, and every planner input is fixed by the dispatch order.
//
// KV ops ride the same leg machinery. A point op (Get/Put/Delete) becomes
// an origin-side route leg to the exit boundary (when non-trivial) plus the
// op itself dispatched to the destination shard with the entry boundary as
// its access source — so the access adapts both shards' topologies exactly
// like a cross-shard route. A Scan fans one scan leg to every shard whose
// range intersects [start, ∞), each read in its own engine's route phase; the
// fragments are correlated by a dispatcher-assigned Tag and stitched in
// shard order (= key order) at the window barrier, where every leg has
// completed — which is what makes multi-shard scans deterministic despite
// the shards' pipelines running concurrently. Outcomes are delivered to
// Config.OnOutcome at the barrier, in dispatch order.

// ServeStats aggregates one Serve run. All fields are
// deterministic for a fixed seed, shard count, and request sequence.
type ServeStats struct {
	Requests int64
	Intra    int64 // requests resolved inside one shard
	Cross    int64 // requests spanning shards (routed via boundaries / fanned)
	Legs     int64 // engine legs dispatched

	Windows    int64 // non-empty rebalance windows the run spanned
	Rebalances int64 // migrations executed at window barriers
	MovedKeys  int64 // keys moved across shards

	Batches int64 // summed over shard engines

	// TotalRouteDistance/Hops span whole requests: leg distances measured in
	// the shards' graphs, plus the boundary intermediates and the one
	// inter-shard forwarding hop of each cross-shard request.
	TotalRouteDistance int64
	TotalRouteHops     int64
	// MaxLegDistance is the worst single-leg distance (per-leg, not
	// per-request: legs of one cross-shard request finish in different
	// shards' pipelines).
	MaxLegDistance int64

	TotalTransformRounds int64
	TotalAdjustLag       int64
	MaxAdjustLag         int

	// KV op counters, at request granularity (a scan fanned over three
	// shards is one Scan). Hits/inserts come from the stitched outcomes;
	// RouteMisses sums the engines' unmeasurable KV access paths.
	Gets           int64
	GetHits        int64
	Puts           int64
	PutInserts     int64
	Deletes        int64
	DeleteHits     int64
	Scans          int64
	ScannedEntries int64
	RouteMisses    int64

	// LoadRatioFirst/Last are the max/mean shard-load ratios of the first
	// non-empty window and the last *full* window — the skew the rebalancer
	// saw before acting and the skew it left behind. A trailing partial
	// window (the stream rarely ends exactly on a window boundary) holds too
	// few requests for its ratio to mean anything, so it only counts when no
	// full window exists at all.
	LoadRatioFirst float64
	LoadRatioLast  float64

	Height     int // tallest shard after the run
	DummyCount int // summed over shards
}

// Outcome is one request's assembled result, delivered to Config.OnOutcome
// at the window barrier in dispatch order — every op produces exactly one,
// routes included. Op is the original envelope as the caller dispatched it
// (Tag included). Point ops carry the destination leg's result; scans carry
// the stitched, limit-truncated entries.
type Outcome struct {
	Op      core.Op
	Found   bool
	Value   []byte
	Version int64
	Existed bool
	Entries []skipgraph.Entry

	// RouteDistance and RouteHops sum the op's tagged leg paths (measured in
	// the shards' graphs) plus the boundary intermediates and forwarding
	// hops of a cross-shard access; 0 for scans, which read without routing.
	// AdjustLag is the worst single leg's pending-adjustment count.
	RouteDistance int
	RouteHops     int
	AdjustLag     int
}

// pipe is one shard's in-flight window pipeline.
type pipe struct {
	ch   chan core.Op
	done chan struct{}
	st   serve.Stats
	err  error
}

// pendingReq is one dispatched op awaiting its leg results at the barrier.
type pendingReq struct {
	tag  int64
	op   core.Op // original envelope
	legs int     // legs carrying the tag (scans and cross-shard routes fan >1)
	// extraDist/extraHops are the dispatcher-side path contributions of a
	// cross-shard op — boundary intermediates and forwarding hops — folded
	// into the outcome on top of the tagged legs' measurements.
	extraDist int
	extraHops int
}

// tagFrag is one tagged leg result captured from a shard engine.
type tagFrag struct {
	shard int
	r     serve.Result
}

// Serve consumes op envelopes until the channel closes (or ctx is
// cancelled), dispatching each to its shard engines' deterministic
// pipelines, and returns the aggregate statistics. After every
// RebalanceEvery requests the shard pipelines drain to a barrier, KV
// outcomes are assembled and delivered, the planner inspects the window's
// per-key loads, and at most one contiguous range migrates — values riding
// with their keys — between adjacent shards before the next window starts.
//
// Serve rejects overlapping calls. Producers should select on the same ctx
// for every send, exactly as with Network.Serve.
func (s *Service) Serve(ctx context.Context, in <-chan core.Op) (ServeStats, error) {
	if !s.serving.CompareAndSwap(false, true) {
		return ServeStats{}, fmt.Errorf("shard: overlapping Serve calls on one service")
	}
	defer s.serving.Store(false)

	var st ServeStats
	rebal0, moved0 := s.rebalances, s.movedKeys
	every := s.cfg.rebalanceEvery()
	batch := s.cfg.BatchSize
	if batch < 1 {
		batch = 32
	}
	var retErr error
	done := false
	sawFullWindow := false
	var nextTag int64
	for !done {
		dir := s.dir.Load()
		pipes := make([]*pipe, len(s.shards))
		for i, sl := range s.shards {
			p := &pipe{ch: make(chan core.Op, 4*batch), done: make(chan struct{})}
			pipes[i] = p
			go func(sl *slot, p *pipe) {
				p.st, p.err = sl.eng.Serve(ctx, p.ch)
				close(p.done)
			}(sl, p)
		}
		var pending []pendingReq
		dispatched := 0
		for dispatched < every && retErr == nil && !done {
			select {
			case <-ctx.Done():
				done, retErr = true, ctx.Err()
			case r, ok := <-in:
				if !ok {
					done = true
					break
				}
				if err := s.checkOp(r); err != nil {
					done, retErr = true, err
					break
				}
				if !s.dispatch(ctx, dir, r, pipes, &st, &pending, &nextTag) {
					done = true // a pipeline died; its error surfaces below
					break
				}
				dispatched++
			}
		}
		for _, p := range pipes {
			close(p.ch)
		}
		for _, p := range pipes {
			<-p.done
			if p.err != nil && retErr == nil {
				retErr = p.err
			}
			st.Batches += p.st.Batches
			st.TotalRouteDistance += p.st.TotalRouteDistance
			st.TotalRouteHops += p.st.TotalRouteHops
			if p.st.MaxRouteDistance > int(st.MaxLegDistance) {
				st.MaxLegDistance = int64(p.st.MaxRouteDistance)
			}
			st.TotalTransformRounds += p.st.TotalTransformRounds
			st.TotalAdjustLag += p.st.TotalAdjustLag
			if p.st.MaxAdjustLag > st.MaxAdjustLag {
				st.MaxAdjustLag = p.st.MaxAdjustLag
			}
			st.RouteMisses += p.st.RouteMisses
		}
		s.deliverOutcomes(pending, &st)
		keyLoad := s.takeKeyLoads()
		if dispatched > 0 {
			st.Windows++
			ratio := loadRatio(dir, keyLoad)
			if st.LoadRatioFirst == 0 {
				st.LoadRatioFirst = ratio
			}
			if dispatched == every {
				st.LoadRatioLast = ratio
				sawFullWindow = true
			} else if !sawFullWindow {
				st.LoadRatioLast = ratio
			}
		}
		if done || retErr != nil {
			break
		}
		// Rebalance at the barrier: every engine is idle between windows.
		if plan, ok := planRebalance(dir, keyLoad, s.cfg.skewThreshold(), s.cfg.minShardKeys()); ok {
			if err := s.executeMigration(dir, plan); err != nil {
				retErr = err
				break
			}
		}
	}
	st.Rebalances = s.rebalances - rebal0
	st.MovedKeys = s.movedKeys - moved0
	st.Height = s.Height()
	st.DummyCount = s.DummyCount()
	return st, retErr
}

// dispatch splits one op into shard legs and feeds them to the window
// pipelines, updating the dispatcher-side books. KV ops are tagged so their
// leg results can be assembled at the barrier. It reports false when a
// pipeline stopped consuming (engine error or cancellation).
func (s *Service) dispatch(ctx context.Context, dir *Directory, op core.Op,
	pipes []*pipe, st *ServeStats, pending *[]pendingReq, nextTag *int64) bool {
	st.Requests++
	switch op.Kind {
	case core.OpRoute:
		legs, n, cross := dir.splitLegs(op.Src, op.Dst)
		s.recordLoad(op.Src, op.Dst)
		if s.cfg.OnRequest != nil {
			s.cfg.OnRequest(op.Src, op.Dst, cross)
		}
		// Routes are tagged only when an outcome consumer exists: the tag
		// costs a fragment capture per leg, and route outcomes carry no KV
		// state — nothing downstream needs them otherwise.
		var tag int64
		if s.cfg.OnOutcome != nil {
			*nextTag++
			tag = *nextTag
			pr := pendingReq{tag: tag, op: op, legs: n}
			if cross {
				pr.extraDist, pr.extraHops = n, 1
			}
			*pending = append(*pending, pr)
		}
		if cross {
			st.Cross++
			st.TotalRouteHops++ // the inter-shard forwarding hop
			// Each non-trivial leg ends (or starts) at a boundary node, which is
			// an intermediate of the whole-request path.
			st.TotalRouteDistance += int64(n)
		} else {
			st.Intra++
		}
		for i := 0; i < n; i++ {
			st.Legs++
			if !s.sendLeg(ctx, pipes[legs[i].shard], core.Op{Src: legs[i].src, Dst: legs[i].dst, Tag: tag}) {
				return false
			}
		}
		return true

	case core.OpGet, core.OpPut, core.OpDelete:
		switch op.Kind {
		case core.OpGet:
			st.Gets++
		case core.OpPut:
			st.Puts++
		case core.OpDelete:
			st.Deletes++
		}
		s.recordLoad(op.Src, op.Dst)
		si, di := dir.ShardOf(op.Src), dir.ShardOf(op.Dst)
		cross := si != di
		if s.cfg.OnRequest != nil {
			s.cfg.OnRequest(op.Src, op.Dst, cross)
		}
		*nextTag++
		tag := *nextTag
		pr := pendingReq{tag: tag, op: op, legs: 1}
		kv := op
		kv.Tag = tag
		if cross {
			st.Cross++
			st.TotalRouteHops++
			pr.extraHops++
			higher := op.Dst > op.Src
			if exit := dir.exitKey(si, higher); exit != op.Src {
				st.Legs++
				st.TotalRouteDistance++ // the exit boundary intermediate
				pr.extraDist++
				if !s.sendLeg(ctx, pipes[si], core.Op{Src: op.Src, Dst: exit}) {
					*pending = append(*pending, pr)
					return false
				}
			}
			entry := dir.entryKey(di, higher)
			if entry != op.Dst {
				st.TotalRouteDistance++ // the entry boundary intermediate
				pr.extraDist++
			}
			kv.Src = entry // the access enters the shard at the boundary
		} else {
			st.Intra++
		}
		*pending = append(*pending, pr)
		st.Legs++
		return s.sendLeg(ctx, pipes[di], kv)

	case core.OpScan:
		st.Scans++
		s.keyLoad[op.Dst]++
		first := dir.ShardOf(op.Dst)
		fan := dir.Shards() - first
		if s.cfg.OnRequest != nil {
			s.cfg.OnRequest(op.Src, op.Dst, fan > 1)
		}
		if fan > 1 {
			st.Cross++
			st.TotalRouteHops += int64(fan - 1) // shard-to-shard forwarding
		} else {
			st.Intra++
		}
		*nextTag++
		tag := *nextTag
		*pending = append(*pending, pendingReq{tag: tag, op: op, legs: fan, extraHops: fan - 1})
		limit := op.Limit
		if limit <= 0 {
			limit = 1
		}
		for i := first; i < dir.Shards(); i++ {
			lo, _ := dir.Range(i)
			start := op.Dst
			if lo > start {
				start = lo
			}
			st.Legs++
			// Every leg carries the full limit: a shard cannot know how many
			// entries its predecessors will contribute, and the barrier stitch
			// truncates exactly.
			if !s.sendLeg(ctx, pipes[i], core.Op{Kind: core.OpScan, Dst: start, Limit: limit, Tag: tag}) {
				return false
			}
		}
		return true
	}
	return true
}

// sendLeg feeds one leg to a shard pipeline, giving up when the pipeline or
// the context dies.
func (s *Service) sendLeg(ctx context.Context, p *pipe, op core.Op) bool {
	select {
	case p.ch <- op:
		return true
	case <-p.done:
		return false
	case <-ctx.Done():
		return false
	}
}

// captureFrag records a tagged leg result from shard engine OnResult
// callbacks; untagged legs (plain routes) pass through untouched. Engines
// call this concurrently, hence the lock; assembly happens single-threaded
// at the barrier.
func (s *Service) captureFrag(shard int, r serve.Result) {
	if r.Op.Tag == 0 {
		return
	}
	s.fragMu.Lock()
	s.frags[r.Op.Tag] = append(s.frags[r.Op.Tag], tagFrag{shard: shard, r: r})
	s.fragMu.Unlock()
}

// deliverOutcomes assembles each pending op's leg results — all complete,
// the pipelines have drained — updates the KV statistics, and hands the
// outcomes to OnOutcome in dispatch order. The fragment store resets for
// the next window.
func (s *Service) deliverOutcomes(pending []pendingReq, st *ServeStats) {
	if len(pending) == 0 {
		return
	}
	s.fragMu.Lock()
	frags := s.frags
	s.frags = make(map[int64][]tagFrag)
	s.fragMu.Unlock()
	for _, p := range pending {
		o := Outcome{Op: p.op}
		fs := frags[p.tag]
		// The access-path view of the whole request: tagged leg measurements
		// plus the dispatcher's boundary/forwarding contributions. Leg order
		// is capture order, but sums and maxima are order-independent.
		for _, f := range fs {
			o.RouteDistance += f.r.RouteDistance
			o.RouteHops += f.r.RouteHops
			if f.r.AdjustLag > o.AdjustLag {
				o.AdjustLag = f.r.AdjustLag
			}
		}
		o.RouteDistance += p.extraDist
		o.RouteHops += p.extraHops
		if p.op.Kind == core.OpScan {
			sort.Slice(fs, func(i, j int) bool { return fs[i].shard < fs[j].shard })
			limit := p.op.Limit
			if limit <= 0 {
				limit = 1
			}
			for _, f := range fs {
				for _, e := range f.r.Entries {
					if len(o.Entries) == limit {
						break
					}
					o.Entries = append(o.Entries, e)
				}
			}
			st.ScannedEntries += int64(len(o.Entries))
		} else if len(fs) > 0 {
			r := fs[0].r
			o.Found, o.Value, o.Version, o.Existed = r.Found, r.Value, r.Version, r.Existed
			switch p.op.Kind {
			case core.OpGet:
				if o.Found {
					st.GetHits++
				}
			case core.OpPut:
				if !o.Existed {
					st.PutInserts++
				}
			case core.OpDelete:
				if o.Existed {
					st.DeleteHits++
				}
			}
		}
		if tr := s.cfg.Tracer; tr != nil && len(fs) > 0 {
			s.recordSpan(tr, p, fs, o)
		}
		if s.cfg.OnOutcome != nil {
			s.cfg.OnOutcome(o)
		}
	}
}

// recordSpan folds one assembled op's leg fragments into the tracer: the
// whole-op verb latency (summed leg service time — queueing and the
// batch-amortized adjuster pass are excluded; they have their own stage
// histograms) and, when slow enough to matter, a slowest-ring span with
// the per-leg breakdown.
func (s *Service) recordSpan(tr *obs.Tracer, p pendingReq, fs []tagFrag, o Outcome) {
	var total int64
	miss := false
	for _, f := range fs {
		total += f.r.RouteNanos
		miss = miss || f.r.RouteMiss
	}
	tr.ObserveOp(int64(p.op.Kind), time.Duration(total))
	if !tr.WouldRecord(total) {
		return
	}
	legs := make([]obs.LegSpan, len(fs))
	for i, f := range fs {
		legs[i] = obs.LegSpan{
			Shard:     int64(f.shard),
			Distance:  int64(f.r.RouteDistance),
			Hops:      int64(f.r.RouteHops),
			AdjustLag: int64(f.r.AdjustLag),
			Epoch:     f.r.Epoch,
			Nanos:     f.r.RouteNanos,
		}
	}
	tr.RecordSpan(obs.Span{
		Seq:           p.tag,
		Kind:          int64(p.op.Kind),
		Src:           p.op.Src,
		Dst:           p.op.Dst,
		Start:         time.Now().UnixNano(),
		TotalNanos:    total,
		Epoch:         fs[0].r.Epoch,
		RouteDistance: int64(o.RouteDistance),
		RouteHops:     int64(o.RouteHops),
		AdjustLag:     int64(o.AdjustLag),
		RouteMiss:     miss,
		Cross:         len(fs) > 1 || p.extraHops > 0,
		Legs:          legs,
	})
}

// checkOp validates one op envelope against the static key space.
func (s *Service) checkOp(op core.Op) error {
	if err := s.checkKey(op.Dst); err != nil {
		return err
	}
	switch op.Kind {
	case core.OpRoute:
		if err := s.checkKey(op.Src); err != nil {
			return err
		}
		if op.Src == op.Dst {
			return fmt.Errorf("shard: source and destination are both %d", op.Src)
		}
	case core.OpGet, core.OpPut, core.OpDelete, core.OpScan:
		// Dst (a scan's start key) is already checked; Src is the access
		// origin for every kind.
		return s.checkKey(op.Src)
	default:
		return fmt.Errorf("shard: unknown op kind %d", op.Kind)
	}
	return nil
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
