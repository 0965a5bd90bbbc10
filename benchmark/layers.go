package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"lsasg"
	"lsasg/internal/amf"
	"lsasg/internal/core"
	"lsasg/internal/obs"
	"lsasg/internal/serve"
	"lsasg/internal/shard"
	"lsasg/internal/skipgraph"
	"lsasg/internal/wire"
	"lsasg/internal/workingset"
)

// The traced run climbs the serving path one rung at a time. Every rung
// re-executes the same ops — preload, warm-up, then the traced prefix — from
// a fresh, identically seeded state, through one more layer than the rung
// below, and times the prefix op by op from outside. A layer's self time is
// its rung minus the rung below. Nothing under internal/ or cmd/ is touched:
// the harness only calls each layer's public functions.
//
//	client    child dsgserve over TCP (the number the budget must explain)
//	wire      in-process wire.Server + wire.Client on loopback
//	lsasg     Network.ServeOps / ShardedNetwork.ServeOps
//	serve     serve.Engine.Serve, batch 1        (single graph)
//	shard     shard.Service.Serve, window 1      (sharded)
//	skipgraph Replica route/scan -> [core] -> Publisher.Publish, the batch-1 loop re-enacted
//	core      DSG.ApplyOp

// ladder is the shared input of every rung.
type ladder struct {
	w    workload
	ops  []lsasg.Op // the fixed-count phase, then the traced prefix
	cops []core.Op  // the same ops as the internal envelope
	skip int        // ops before the traced prefix
	rec  recorder
}

func (l *ladder) k() int { return len(l.ops) - l.skip }

func newLadder(w workload, in inputs) *ladder {
	l := &ladder{w: w}
	l.ops = append(l.ops, in.fixed...)
	l.skip = len(l.ops)
	l.ops = append(l.ops, in.conns[0][:w.traced]...)
	l.cops = make([]core.Op, len(l.ops))
	for i, op := range l.ops {
		l.cops[i] = core.Op{Kind: core.OpKind(op.Kind), Src: int64(op.Src), Dst: int64(op.Dst), Value: op.Value, Limit: op.Limit}
	}
	l.rec.k = l.k()
	return l
}

// newDSG is the graph every daemon of this benchmark starts from: dsgserve's
// default balance and the fixed daemon seed, globally repaired once as
// serve.New does before the first op.
func (l *ladder) newDSG() *core.DSG {
	d := core.New(l.w.n, core.Config{A: 4, Seed: 1})
	d.RepairBalance()
	return d
}

// service mirrors how cmd/dsgserve builds its lsasg.Service from defaults,
// with tracing on so the rung can read its own stage sums.
func (l *ladder) service() (lsasg.Service, *obs.Tracer, error) {
	opts := []lsasg.Option{lsasg.WithSeed(1), lsasg.WithBatchSize(1), lsasg.WithParallelism(1), lsasg.WithTracing()}
	if l.w.shards > 1 {
		nw, err := lsasg.NewSharded(l.w.n, append(opts, lsasg.WithShards(l.w.shards), lsasg.WithRebalanceWindow(1))...)
		if err != nil {
			return nil, nil, err
		}
		return nw, nw.Tracer(), nil
	}
	nw, err := lsasg.New(l.w.n, opts...)
	if err != nil {
		return nil, nil, err
	}
	return nw, nw.Tracer(), nil
}

// coreRung is rung "core": the bare ApplyOp loop.
type coreRung struct {
	apply                       []time.Duration
	allocs, bytes               float64 // per op, from runtime.MemStats around the loop
	rounds                      float64 // transform rounds per op
	inserted, removed, repaired float64 // dummy insertions/removals and repair-scan work over the prefix
}

func (l *ladder) rungCore() (coreRung, error) {
	var out coreRung
	d := l.newDSG()
	for i, op := range l.cops[:l.skip] {
		if _, err := d.ApplyOp(op); err != nil {
			return out, fmt.Errorf("core rung, op %d: %w", i, err)
		}
	}
	ins0, rem0 := d.RepairStats()
	_, scan0 := d.LocalityWork()
	out.apply = make([]time.Duration, l.k()) // sized up front: the loop below allocates nothing itself
	starts := make([]time.Time, l.k())
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, op := range l.cops[l.skip:] {
		starts[i] = time.Now()
		r, err := d.ApplyOp(op)
		out.apply[i] = time.Since(starts[i])
		if err != nil {
			return out, fmt.Errorf("core rung, op %d: %w", l.skip+i, err)
		}
		out.rounds += float64(r.TransformRounds)
	}
	runtime.ReadMemStats(&m1)
	k := float64(l.k())
	out.allocs = float64(m1.Mallocs-m0.Mallocs) / k
	out.bytes = float64(m1.TotalAlloc-m0.TotalAlloc) / k
	out.rounds /= k
	ins1, rem1 := d.RepairStats()
	_, scan1 := d.LocalityWork()
	out.inserted, out.removed, out.repaired = float64(ins1-ins0), float64(rem1-rem0), float64(scan1-scan0)
	l.rec.rung(spanCoreBare, spanNone, starts, out.apply)
	return out, nil
}

// graphRung is rung "skipgraph": the engine's batch-1 loop re-enacted by
// hand — snapshot-side read on the current Replica, ApplyOp, Publish.
type graphRung struct {
	route, scan, apply, publish []time.Duration
	height, nodes               int
}

func (l *ladder) rungSkipgraph() (graphRung, error) {
	k := l.k()
	out := graphRung{route: make([]time.Duration, k), scan: make([]time.Duration, k), apply: make([]time.Duration, k), publish: make([]time.Duration, k)}
	routeAt, applyAt, pubAt := make([]time.Time, k), make([]time.Time, k), make([]time.Time, k)
	d := l.newDSG()
	pub := skipgraph.NewPublisher(d.Graph())
	rep := pub.Current()
	for i, op := range l.cops {
		j := i - l.skip
		t0 := time.Now()
		switch op.Kind {
		case core.OpScan:
			rep.ScanFrom(skipgraph.KeyOf(op.Dst), max(op.Limit, 1))
		case core.OpGet:
			rep.RouteKeys(skipgraph.KeyOf(op.Src), skipgraph.KeyOf(op.Dst)) // a miss is legal for KV ops
			rep.GetValue(skipgraph.KeyOf(op.Dst))
		default:
			rep.RouteKeys(skipgraph.KeyOf(op.Src), skipgraph.KeyOf(op.Dst))
		}
		t1 := time.Now()
		if _, err := d.ApplyOp(op); err != nil {
			return out, fmt.Errorf("skipgraph rung, op %d: %w", i, err)
		}
		t2 := time.Now()
		rep = pub.Publish()
		t3 := time.Now()
		if j < 0 {
			continue
		}
		if op.Kind == core.OpScan {
			out.scan[j] = t1.Sub(t0)
		} else {
			out.route[j] = t1.Sub(t0)
		}
		out.apply[j], out.publish[j] = t2.Sub(t1), t3.Sub(t2)
		routeAt[j], applyAt[j], pubAt[j] = t0, t1, t2
	}
	out.height, out.nodes = d.Graph().Height(), d.Graph().N()
	read := make([]time.Duration, k)
	for j := range read {
		read[j] = out.route[j] + out.scan[j]
	}
	parent := spanServe
	if l.w.shards > 1 {
		parent = spanNone // the sharded ladder does not stand on one graph
	}
	l.rec.rung(spanRead, parent, routeAt, read)
	l.rec.rung(spanApply, parent, applyAt, out.apply)
	l.rec.rung(spanPublish, parent, pubAt, out.publish)
	return out, nil
}

// stages is what a layer's own tracer attributes to the two instrumented
// stages of the pipeline: the adjuster's batch apply and the snapshot-side
// route leg.
type stages struct{ adjust, routing time.Duration }

func readStages(tr *obs.Tracer) stages {
	_, adjust, _ := tr.StageHistogram(obs.StageAdjustApply).Snapshot()
	_, routing, _ := tr.StageHistogram(obs.StageRouteLeg).Snapshot()
	return stages{time.Duration(adjust), time.Duration(routing)}
}

func (a stages) minus(b stages) stages { return stages{a.adjust - b.adjust, a.routing - b.routing} }

// piped is one rung's view of the traced prefix: each op's inclusive time,
// and how much of the prefix the tracer inside that same execution saw in
// the adjuster and in the route leg.
type piped struct {
	each  []time.Duration
	inner stages
	whole stages // the same stage sums over every op, fixed-count phase included
}

// residualUS is the rung's time per op outside the adjuster and the route
// leg, in µs: everything the layers between the graph and this rung's entry
// point add. Both terms come from one execution, so the heavy, noisy
// adjuster time — three orders of magnitude above the thin layers on the
// route workloads, and ±30 % from one execution to the next on this box —
// cancels exactly; a difference of two rungs' inclusive means would drown in
// it. The two stages overlap (the engine routes while the adjuster applies),
// so the residual under-counts by the shorter of the two, a few µs.
func (p piped) residualUS() float64 {
	return us(sum(p.each)-p.inner.adjust-p.inner.routing) / float64(len(p.each))
}

// stream pushes ops into one deterministic pipeline run built over tr and
// returns the traced prefix: each op's time is the gap between consecutive
// results. The pipelines deliver one result per op, in order, from a single
// goroutine, with that op's stages already observed, and never wait for
// input — the feeder always has the next op ready.
func stream[T any](l *ladder, name, parent spanName, tr *obs.Tracer, ops []T,
	run func(ctx context.Context, in <-chan T, result func()) error) (piped, error) {
	ctx, cancel := context.WithCancel(context.Background())
	in := make(chan T)
	fed := make(chan struct{})
	go func() {
		defer close(fed)
		defer close(in)
		for _, op := range ops {
			select {
			case in <- op:
			case <-ctx.Done():
				return
			}
		}
	}()
	var before stages
	stamps := make([]time.Time, 1, len(ops)+1)
	stamps[0] = time.Now()
	err := run(ctx, in, func() {
		if len(stamps) == l.skip {
			before = readStages(tr) // the last fixed-count op has just completed
		}
		stamps = append(stamps, time.Now())
	})
	cancel()
	<-fed
	if err != nil {
		return piped{}, fmt.Errorf("%s: %w", spanNames[name].name, err)
	}
	if len(stamps) != len(ops)+1 {
		return piped{}, fmt.Errorf("%s: %d results for %d ops", spanNames[name].name, len(stamps)-1, len(ops))
	}
	out := piped{each: make([]time.Duration, l.k()), whole: readStages(tr)}
	out.inner = out.whole.minus(before)
	for j := range out.each {
		out.each[j] = stamps[l.skip+j+1].Sub(stamps[l.skip+j])
	}
	l.rec.rung(name, parent, stamps[l.skip:len(ops)], out.each)
	return out, nil
}

// rungServe is rung "serve": one serve.Engine at batch 1 over one graph.
func (l *ladder) rungServe() (piped, serve.Stats, error) {
	var st serve.Stats
	tr := obs.NewTracer()
	p, err := stream(l, spanServe, spanLsasg, tr, l.cops, func(ctx context.Context, in <-chan core.Op, result func()) error {
		eng := serve.New(l.newDSG(), serve.Config{BatchSize: 1, Tracer: tr, OnResult: func(serve.Result) { result() }})
		var err error
		st, err = eng.Serve(ctx, in)
		return err
	})
	return p, st, err
}

// rungShard is rung "shard": the dispatcher over its shard engines at
// window 1. Outcomes arrive at the window barrier, every engine idle.
func (l *ladder) rungShard() (piped, shard.ServeStats, error) {
	var st shard.ServeStats
	tr := obs.NewTracer()
	p, err := stream(l, spanServe, spanLsasg, tr, l.cops, func(ctx context.Context, in <-chan core.Op, result func()) error {
		svc, err := shard.New(l.w.n, shard.Config{
			Shards: l.w.shards, A: 4, Seed: 1, BatchSize: 1, Parallelism: 1, RebalanceEvery: 1,
			Tracer: tr, OnOutcome: func(shard.Outcome) { result() },
		})
		if err != nil {
			return err
		}
		st, err = svc.Serve(ctx, in)
		return err
	})
	return p, st, err
}

// rungLsasg is rung "lsasg": the public Service's ServeOps.
func (l *ladder) rungLsasg() (piped, error) {
	svc, tr, err := l.service()
	if err != nil {
		return piped{}, err
	}
	return stream(l, spanLsasg, spanWire, tr, l.ops, func(ctx context.Context, in <-chan lsasg.Op, result func()) error {
		_, err := svc.ServeOps(ctx, in, func(lsasg.OpResult) { result() })
		return err
	})
}

// rungWorkingset times the working-set bookkeeping lsasg does per op.
func (l *ladder) rungWorkingset() []time.Duration {
	b := workingset.NewBound(l.w.n)
	out, starts := make([]time.Duration, l.k()), make([]time.Time, l.k())
	for i, op := range l.ops {
		t0 := time.Now()
		if op.Src != op.Dst {
			b.Add(op.Src, op.Dst)
		}
		if j := i - l.skip; j >= 0 {
			starts[j], out[j] = t0, time.Since(t0)
		}
	}
	l.rec.rung(spanWorkingset, spanLsasg, starts, out)
	return out
}

// wireRung is rung "wire": wire.Server and wire.Client in this process, on a
// loopback socket, plus the prefix's real frames for the codec measurement.
type wireRung struct {
	piped
	reqs, resps [][]byte
}

func (l *ladder) rungWire() (wireRung, error) {
	var out wireRung
	svc, tr, err := l.service()
	if err != nil {
		return out, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return out, err
	}
	srv := wire.NewServer(svc)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(lis) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-served
	}()
	cl, err := wire.DialClient(lis.Addr().String(), wire.WithPoolSize(1))
	if err != nil {
		return out, err
	}
	defer cl.Close()
	out.each = make([]time.Duration, l.k())
	starts := make([]time.Time, l.k())
	var before stages
	for i, op := range l.ops {
		if i == l.skip {
			before = readStages(tr) // closed loop: nothing is in flight
		}
		req, _ := wire.RequestFor(op)
		t0 := time.Now()
		resp, err := cl.Do(req)
		d := time.Since(t0)
		if err != nil {
			return out, fmt.Errorf("wire rung, op %d: %w", i, err)
		}
		if j := i - l.skip; j >= 0 {
			starts[j], out.each[j] = t0, d
			req.Seq = resp.Seq
			out.reqs, out.resps = append(out.reqs, req.Encode()), append(out.resps, resp.Encode())
		}
	}
	out.whole = readStages(tr)
	out.inner = out.whole.minus(before)
	l.rec.rung(spanWire, spanClient, starts, out.each)
	return out, nil
}

// codec measures the four codec calls a round trip makes — request encode
// and decode, response encode and decode — over the prefix's real frames.
func (r wireRung) codec() (nsPerOp, bytesPerOp float64, err error) {
	reqs, resps := make([]wire.Request, len(r.reqs)), make([]wire.Response, len(r.resps))
	for i := range r.reqs {
		if reqs[i], err = wire.DecodeRequest(r.reqs[i]); err != nil {
			return 0, 0, err
		}
		if resps[i], err = wire.DecodeResponse(r.resps[i]); err != nil {
			return 0, 0, err
		}
	}
	const reps = 20 // enough calls for the clock to resolve a sub-microsecond codec
	bytes := 0      // also keeps the compiler from discarding the encodes
	t0 := time.Now()
	for rep := 0; rep < reps; rep++ {
		for i := range reqs {
			bytes += len(reqs[i].Encode()) + len(resps[i].Encode())
			wire.DecodeRequest(r.reqs[i])
			wire.DecodeResponse(r.resps[i])
		}
	}
	calls := float64(reps * len(reqs))
	return float64(time.Since(t0)) / calls, float64(bytes)/calls + 8, nil // + two 4-byte length prefixes
}

// childRung is the client's view of a real child daemon over the prefix.
type childRung struct {
	lat     []time.Duration // prefix ops
	byKind  map[lsasg.OpKind][]time.Duration
	reading reading
	stats   lsasg.Stats
	// Traced child only: /metrics deltas over the prefix and the daemon's own
	// per-verb summaries.
	adjustSum, routeSum     float64 // seconds
	adjustCount, routeCount float64
	retryEvents             float64
	verbs                   []obs.VerbLatency
}

// rungChild replays the ladder's ops closed-loop on one connection against
// a fresh child. With traced set the child runs -trace=true with a metrics
// endpoint, which is scraped at both ends of the prefix.
func (h *harness) rungChild(l *ladder, traced bool, res *result) (childRung, error) {
	out := childRung{byKind: map[lsasg.OpKind][]time.Duration{}}
	w := l.w
	w.conns = 1
	metricsAddr := ""
	if traced {
		// dsgserve logs the metrics address as given, so ":0" would hide
		// the port: reserve a free one and hand it over.
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return out, err
		}
		metricsAddr = lis.Addr().String()
		lis.Close()
	}
	s, err := h.open(w, metricsAddr)
	if err != nil {
		return out, err
	}
	var (
		m      meter
		before map[string]float64
	)
	for i, op := range l.ops {
		if i == l.skip {
			if traced {
				if before, err = scrape(metricsAddr); err != nil {
					s.abandon()
					return out, err
				}
			}
			if m, err = startMeter(s.d.pid); err != nil {
				s.abandon()
				return out, err
			}
		}
		_, lat, bad := s.exchange(0, op)
		s.count(bad)
		out.byKind[op.Kind] = append(out.byKind[op.Kind], lat)
		if i >= l.skip {
			out.lat = append(out.lat, lat)
		}
	}
	if out.reading, err = m.stop(); err != nil {
		s.abandon()
		return out, err
	}
	if traced {
		after, err := scrape(metricsAddr)
		if err != nil {
			s.abandon()
			return out, err
		}
		delta := func(key string) float64 { return after[key] - before[key] }
		out.adjustSum = delta(`dsg_stage_latency_seconds_sum{stage="adjust_apply"}`)
		out.adjustCount = delta(`dsg_stage_latency_seconds_count{stage="adjust_apply"}`)
		out.routeSum = delta(`dsg_stage_latency_seconds_sum{stage="route_leg"}`)
		out.routeCount = delta(`dsg_stage_latency_seconds_count{stage="route_leg"}`)
		for key, v := range after {
			if strings.HasPrefix(key, "dsg_retry_events_total{") {
				out.retryEvents += v
			}
		}
	}
	st, err := s.cls[0].Stats()
	if err != nil {
		s.abandon()
		return out, fmt.Errorf("stats: %w", err)
	}
	out.stats = st.Cum
	if traced {
		if _, out.verbs, err = s.cls[0].TraceDump(1); err != nil {
			s.abandon()
			return out, fmt.Errorf("trace dump: %w", err)
		}
	}
	res.attempted += s.attempted
	res.failed += s.failed
	if s.firstFail != "" {
		res.problemf("child daemon (traced=%v): %s", traced, s.firstFail)
	}
	starts := make([]time.Time, len(out.lat)) // the client span only needs durations
	if !traced {
		l.rec.rung(spanClient, spanNone, starts, out.lat)
	}
	return out, s.finish()
}

// scrape reads the daemon's Prometheus text into series -> value.
func scrape(addr string) (map[string]float64, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

// amfFindUS times amf.Find on a fixed-size input, the median-finding
// subroutine every transformation calls.
func amfFindUS(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	values := make([]amf.Value, 256)
	for i := range values {
		values[i] = amf.Finite(rng.Int63n(1 << 20))
	}
	const reps = 200
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		amf.Find(values, 4, rng)
	}
	return us(time.Since(t0)) / reps
}

func sum(d []time.Duration) time.Duration {
	var s time.Duration
	for _, x := range d {
		s += x
	}
	return s
}

// runTraced is the per-layer run of one workload.
func (h *harness) runTraced(w workload, seed int64) result {
	res := result{workload: w.name, traced: true}
	l := newLadder(w, w.gen(w, seed))
	k := float64(l.k())
	perOpUS := func(d []time.Duration) float64 { return us(sum(d)) / k }
	fail := func(err error) result {
		res.problemf("%v", err)
		return res
	}

	cr, err := l.rungCore()
	if err != nil {
		return fail(err)
	}
	gr, err := l.rungSkipgraph()
	if err != nil {
		return fail(err)
	}
	ws := l.rungWorkingset()
	ls, err := l.rungLsasg()
	if err != nil {
		return fail(err)
	}
	wr, err := l.rungWire()
	if err != nil {
		return fail(err)
	}
	codecNS, frameBytes, err := wr.codec()
	if err != nil {
		return fail(err)
	}
	plain, err := h.rungChild(l, false, &res)
	if err != nil {
		return fail(fmt.Errorf("child daemon: %w", err))
	}
	traced, err := h.rungChild(l, true, &res)
	if err != nil {
		return fail(fmt.Errorf("traced child daemon: %w", err))
	}

	res.add("core.apply_ms_per_op", perOpUS(cr.apply)/1e3, "ms")
	sortedApply := slices.Sorted(slices.Values(cr.apply))
	res.add("core.apply_p95_ms", ms(percentile(sortedApply, 0.95)), "ms")
	res.add("core.apply_tracked_ms_per_op", perOpUS(gr.apply)/1e3, "ms")
	res.add("core.allocs_per_op", cr.allocs, "count")
	res.add("core.bytes_per_op", cr.bytes, "bytes")
	res.add("core.transform_rounds_per_op", cr.rounds, "rounds")
	res.add("core.dummies_inserted_per_kop", cr.inserted*1e3/k, "count")
	res.add("core.dummies_removed_per_kop", cr.removed*1e3/k, "count")
	res.add("core.repair_scan_per_op", cr.repaired/k, "count")
	res.add("amf.find_us_n256", amfFindUS(seed), "us")
	res.add("skipgraph.route_us_per_op", perOpUS(gr.route), "us")
	res.add("skipgraph.publish_us_per_op", perOpUS(gr.publish), "us")
	res.add("skipgraph.scan_us_per_op", perOpUS(gr.scan), "us")
	res.add("skipgraph.height_end", float64(gr.height), "count")
	res.add("skipgraph.nodes_end", float64(gr.nodes), "count")
	res.add("skipgraph.route_dist_max", float64(plain.stats.MaxRouteDistance), "hops")
	res.add("skipgraph.route_bound_a_h", float64(4*plain.stats.Height), "hops")

	// Thin layers: a rung's residual is its time outside the adjuster and the
	// route leg; a layer's self time is its rung's residual minus the rung
	// below's. Under the serve engine sits the publish the skipgraph rung
	// timed; under the shard dispatcher sit its engines, whose publishes its
	// residual therefore includes.
	var under piped   // the rung under lsasg
	var heavy float64 // the adjuster and route time, µs per op
	if w.shards > 1 {
		sr, st, err := l.rungShard()
		if err != nil {
			return fail(err)
		}
		under = sr
		heavy = us(sr.inner.adjust+sr.inner.routing) / k
		res.add("serve.self_us_per_op", 0, "us")
		res.add("serve.adjust_lag_mean", 0, "count")
		res.add("serve.batches", 0, "count")
		res.add("shard.serve_ms_per_op", perOpUS(sr.each)/1e3, "ms")
		res.add("shard.self_us_per_op", sr.residualUS(), "us")
		res.add("shard.cross_ratio", float64(st.Cross)/float64(st.Requests), "ratio")
		res.add("shard.rebalances", float64(st.Rebalances), "count")
		res.add("shard.migrated_keys", float64(st.MovedKeys), "count")
	} else {
		sv, st, err := l.rungServe()
		if err != nil {
			return fail(err)
		}
		under = sv
		// The adjuster as the daemon runs it: with a Publisher attached, whose
		// touch tracking the bare core loop does not pay.
		heavy = perOpUS(gr.apply) + perOpUS(gr.route) + perOpUS(gr.scan)
		res.add("serve.self_us_per_op", sv.residualUS()-perOpUS(gr.publish), "us")
		res.add("serve.adjust_lag_mean", st.MeanAdjustLag(), "count")
		res.add("serve.batches", float64(st.Batches), "count")
		res.add("shard.serve_ms_per_op", 0, "ms")
		res.add("shard.self_us_per_op", 0, "us")
		res.add("shard.cross_ratio", 0, "ratio")
		res.add("shard.rebalances", 0, "count")
		res.add("shard.migrated_keys", 0, "count")
	}
	lsasgSelf := ls.residualUS() - under.residualUS() - perOpUS(ws)
	wireSelf := wr.residualUS() - ls.residualUS()
	// The same residual, taken on the traced child from its own /metrics stage
	// sums, is larger than the in-process wire rung's: client and server in
	// two processes wake each other through the kernel, not through one Go
	// scheduler. That difference is the price of the process boundary.
	childResidual := perOpUS(traced.lat) - (traced.adjustSum+traced.routeSum)*1e6/k
	xproc := childResidual - wr.residualUS()
	// The self times telescope: with the adjuster and route time they sum to
	// that heavy part plus the traced child's residual, set against what the
	// client of the untraced child saw.
	budget := heavy + childResidual
	res.add("workingset.add_us_per_op", perOpUS(ws), "us")
	res.add("lsasg.self_us_per_op", lsasgSelf, "us")
	res.add("wire.self_us_per_op", wireSelf, "us")
	res.add("wire.xproc_us_per_op", xproc, "us")
	res.add("wire.codec_ns_per_op", codecNS, "ns")
	res.add("wire.frame_bytes_per_op", frameBytes, "bytes")
	res.add("wire.retry_events_per_kop", traced.retryEvents*1e3/float64(len(l.ops)), "count")

	res.add("obs.trace_overhead_ratio", traced.reading.wall.Seconds()/plain.reading.wall.Seconds(), "ratio")
	// What the daemon says an op takes against what the client waits: its
	// busiest verb's own p50 over the client's p50 for the same verb.
	var busiest obs.VerbLatency
	for _, v := range traced.verbs {
		if v.Count > busiest.Count {
			busiest = v
		}
	}
	reported := 0.0
	if seen := traced.byKind[lsasg.OpKind(busiest.Kind)]; len(seen) > 0 {
		slices.Sort(seen)
		reported = float64(busiest.P50Nanos) / float64(percentile(seen, 0.50))
	}
	res.add("obs.reported_p50_ratio", reported, "ratio")
	res.add("obs.adjust_apply_ms_per_op", ratio(traced.adjustSum*1e3, traced.adjustCount), "ms")
	res.add("obs.route_leg_us_per_op", ratio(traced.routeSum*1e6, traced.routeCount), "us")

	lat := slices.Sorted(slices.Values(plain.lat))
	clientUS := perOpUS(plain.lat)
	res.add("loadgen.lat_mean_ms", clientUS/1e3, "ms")
	res.add("loadgen.lat_p50_ms", ms(percentile(lat, 0.50)), "ms")
	res.add("loadgen.lat_p99_ms", ms(percentile(lat, 0.99)), "ms")
	res.add("loadgen.lat_max_ms", ms(lat[len(lat)-1]), "ms")
	res.add("loadgen.steal_ratio", plain.reading.stealRatio, "ratio")
	// The serve (or shard), lsasg and wire rungs each ran the identical
	// adjuster work, fixed-count phase included, and timed it with their own
	// tracer: three passes of the same work a few seconds apart. Their
	// disagreement is machine noise, the signal the spread of repeated passes
	// gives.
	same := []float64{under.whole.adjust.Seconds(), ls.whole.adjust.Seconds(), wr.whole.adjust.Seconds()}
	spread := (slices.Max(same) - slices.Min(same)) / median(same)
	res.add("loadgen.pass_spread", spread, "ratio")
	res.add("loadgen.client_cpu_ms_per_op", plain.reading.selfMS/k, "ms")
	res.add("budget.sum_ratio", budget/clientUS, "ratio")

	res.notes = append(res.notes, fmt.Sprintf("traced prefix: %d ops after %d fixed-count ops, 1 connection; child cpu %.3f ms/op",
		l.k(), l.skip, plain.reading.daemonMS/k))
	if spread > 0.25 {
		res.notes = append(res.notes, fmt.Sprintf("noisy: three timings of identical work spread %.2f > 0.25", spread))
	}
	if err := l.rec.write(h.outDir, w.name); err != nil {
		res.problemf("writing spans: %v", err)
	}
	return res
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
