package wire

import (
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lsasg"
	"lsasg/internal/obs"
)

// Collector aggregates serving observability without perturbing the hot
// path: per-op counters advance on lock-free atomics as results flow, and
// the connection reader holding the server's service lock stores the
// topology-level figures (height, dummies, rebalances, migrated keys) after
// every op — the service's methods are not concurrency-safe, so a scrape
// reads only what was left here and never touches the service. It renders
// the Prometheus text exposition format (metric names are listed in
// docs/WIRE.md).
type Collector struct {
	start time.Time

	// Per-verb completed-request counters, indexed by Verb.
	ops [verbMax + 1]atomic.Int64
	// Per-code error counters.
	errs [CodeInternal + 1]atomic.Int64

	// Access-path accumulator over completed ops.
	distSum atomic.Int64

	// KV outcome accumulators.
	getHits    atomic.Int64
	putInserts atomic.Int64
	delHits    atomic.Int64
	scanned    atomic.Int64

	conns atomic.Int64

	// tracer backs the latency-histogram and retry-event families. Always
	// non-nil: NewCollector installs a private one so Render always emits
	// the full family set; WithTracer swaps in the service's live tracer
	// before the server starts, so every family then reflects real serving
	// measurements.
	tracer *obs.Tracer

	// Topology figures as of the last served op, stored under the service
	// lock.
	height     atomic.Int64
	dummies    atomic.Int64
	rebalances atomic.Int64
	migrated   atomic.Int64

	// req/s gauge state: the previous scrape's observation.
	scrapeMu  sync.Mutex
	prevAt    time.Time
	prevTotal int64
}

// NewCollector creates an empty collector.
func NewCollector() *Collector {
	now := time.Now()
	return &Collector{start: now, prevAt: now, tracer: obs.NewTracer()}
}

// setTracer replaces the collector's metric source with the service's live
// tracer. Must be called before the server starts handling connections.
func (c *Collector) setTracer(tr *obs.Tracer) {
	if tr != nil {
		c.tracer = tr
	}
}

// observeResult records one completed op.
func (c *Collector) observeResult(v Verb, r lsasg.OpResult) {
	c.ops[v].Add(1)
	c.distSum.Add(int64(r.RouteDistance))
	switch r.Op.Kind {
	case lsasg.GetKind:
		if r.Found {
			c.getHits.Add(1)
		}
	case lsasg.PutKind:
		if !r.Existed {
			c.putInserts.Add(1)
		}
	case lsasg.DeleteKind:
		if r.Existed {
			c.delHits.Add(1)
		}
	case lsasg.ScanKind:
		c.scanned.Add(int64(len(r.Entries)))
	}
}

// observeAdmin records one completed admin request.
func (c *Collector) observeAdmin(v Verb) { c.ops[v].Add(1) }

// observeError records one non-OK response — or, under CodeInternal, a
// failure behind an op that was answered OK. Unknown-key and dead-node
// responses also feed the tracer's retry-event counters: each is one served
// op's miss, answered once — the client retries neither.
func (c *Collector) observeError(code ErrCode) {
	if int(code) < len(c.errs) {
		c.errs[code].Add(1)
	}
	switch code {
	case CodeUnknownKey:
		c.tracer.RetryEvent(obs.EventUnknownKey)
	case CodeDeadNode:
		c.tracer.RetryEvent(obs.EventDeadRoute)
	}
}

// observeService stores the topology figures of the service's current
// statistics; the server calls it under the service lock after every frame
// it serves.
func (c *Collector) observeService(st lsasg.Stats) {
	c.height.Store(int64(st.Height))
	c.dummies.Store(int64(st.DummyCount))
	c.rebalances.Store(st.Rebalances)
	c.migrated.Store(st.MigratedKeys)
}

func (c *Collector) connOpened() { c.conns.Add(1) }
func (c *Collector) connClosed() { c.conns.Add(-1) }

func (c *Collector) opTotal() int64 {
	var t int64
	for v := VerbRoute; v <= VerbScan; v++ {
		t += c.ops[v].Load()
	}
	return t
}

// Render writes the Prometheus text exposition of every metric.
func (c *Collector) Render() string {
	var b strings.Builder
	now := time.Now()
	total := c.opTotal()

	c.scrapeMu.Lock()
	dt := now.Sub(c.prevAt).Seconds()
	rate := 0.0
	if dt > 0 {
		rate = float64(total-c.prevTotal) / dt
	}
	c.prevAt, c.prevTotal = now, total
	c.scrapeMu.Unlock()

	counter := func(name, help string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	}
	gauge := func(name, help string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
	}

	counter("dsg_requests_total", "Completed requests by verb.")
	for v := VerbRoute; v <= verbMax; v++ {
		fmt.Fprintf(&b, "dsg_requests_total{verb=%q} %d\n", v.String(), c.ops[v].Load())
	}

	counter("dsg_errors_total", "Non-OK responses by wire error code; internal also counts failures behind an answered op.")
	for code, name := range map[ErrCode]string{
		CodeUnknownKey: "unknown_key", CodeDeadNode: "dead_node",
		CodeOutOfRange: "out_of_range", CodeRetry: "retry",
		CodeInvalid: "invalid", CodeInternal: "internal",
	} {
		fmt.Fprintf(&b, "dsg_errors_total{code=%q} %d\n", name, c.errs[code].Load())
	}

	gauge("dsg_req_per_sec", "Op throughput since the previous scrape.")
	fmt.Fprintf(&b, "dsg_req_per_sec %g\n", rate)

	gauge("dsg_route_distance_mean", "Mean routing distance over all completed ops.")
	meanDist := 0.0
	if total > 0 {
		meanDist = float64(c.distSum.Load()) / float64(total)
	}
	fmt.Fprintf(&b, "dsg_route_distance_mean %g\n", meanDist)

	counter("dsg_rebalances_total", "Skew-driven shard migrations.")
	fmt.Fprintf(&b, "dsg_rebalances_total %d\n", c.rebalances.Load())
	counter("dsg_migrated_keys_total", "Keys moved across shards by the rebalancer.")
	fmt.Fprintf(&b, "dsg_migrated_keys_total %d\n", c.migrated.Load())

	counter("dsg_kv_ops_total", "Completed KV data-plane ops by kind.")
	fmt.Fprintf(&b, "dsg_kv_ops_total{op=\"get\"} %d\n", c.ops[VerbGet].Load())
	fmt.Fprintf(&b, "dsg_kv_ops_total{op=\"put\"} %d\n", c.ops[VerbPut].Load())
	fmt.Fprintf(&b, "dsg_kv_ops_total{op=\"delete\"} %d\n", c.ops[VerbDelete].Load())
	fmt.Fprintf(&b, "dsg_kv_ops_total{op=\"scan\"} %d\n", c.ops[VerbScan].Load())
	counter("dsg_kv_hits_total", "KV op outcomes: get hits, put joins, delete hits.")
	fmt.Fprintf(&b, "dsg_kv_hits_total{op=\"get\"} %d\n", c.getHits.Load())
	fmt.Fprintf(&b, "dsg_kv_hits_total{op=\"put_insert\"} %d\n", c.putInserts.Load())
	fmt.Fprintf(&b, "dsg_kv_hits_total{op=\"delete\"} %d\n", c.delHits.Load())
	counter("dsg_kv_scanned_entries_total", "Entries returned across all scans.")
	fmt.Fprintf(&b, "dsg_kv_scanned_entries_total %d\n", c.scanned.Load())

	histogram := func(name, help string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	}
	writeHist := func(name, label, value string, h *obs.Histogram) {
		buckets, sumNanos, count := h.Snapshot()
		cum := int64(0)
		for i := 0; i < obs.NumBuckets; i++ {
			cum += buckets[i]
			fmt.Fprintf(&b, "%s_bucket{%s=%q,le=\"%g\"} %d\n",
				name, label, value, obs.BucketBound(i).Seconds(), cum)
		}
		cum += buckets[obs.NumBuckets]
		fmt.Fprintf(&b, "%s_bucket{%s=%q,le=\"+Inf\"} %d\n", name, label, value, cum)
		fmt.Fprintf(&b, "%s_sum{%s=%q} %g\n", name, label, value, float64(sumNanos)/1e9)
		fmt.Fprintf(&b, "%s_count{%s=%q} %d\n", name, label, value, count)
	}

	histogram("dsg_op_latency_seconds", "Route-phase service time per completed op, by verb.")
	for k := int64(0); k < obs.NumKinds(); k++ {
		writeHist("dsg_op_latency_seconds", "verb", obs.KindName(k), c.tracer.VerbHistogram(k))
	}
	histogram("dsg_stage_latency_seconds", "Per-stage timings of an engine leg: its route, its adjuster apply.")
	for st := 0; st < obs.NumStages(); st++ {
		writeHist("dsg_stage_latency_seconds", "stage", obs.StageName(st), c.tracer.StageHistogram(st))
	}

	counter("dsg_retry_events_total", "Ops answered as a miss: unknown-key responses, dead-node responses.")
	for ev := 0; ev < obs.NumEvents(); ev++ {
		fmt.Fprintf(&b, "dsg_retry_events_total{event=%q} %d\n", obs.EventName(ev), c.tracer.RetryEvents(ev))
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gauge("dsg_goroutines", "Live goroutines in the daemon process.")
	fmt.Fprintf(&b, "dsg_goroutines %d\n", runtime.NumGoroutine())
	gauge("dsg_heap_alloc_bytes", "Heap bytes in use (runtime.MemStats.HeapAlloc).")
	fmt.Fprintf(&b, "dsg_heap_alloc_bytes %d\n", ms.HeapAlloc)
	counter("dsg_gc_cycles_total", "Completed garbage-collection cycles.")
	fmt.Fprintf(&b, "dsg_gc_cycles_total %d\n", ms.NumGC)
	counter("dsg_gc_pause_seconds_total", "Cumulative stop-the-world GC pause time.")
	fmt.Fprintf(&b, "dsg_gc_pause_seconds_total %g\n", float64(ms.PauseTotalNs)/1e9)

	gauge("dsg_height", "Skip-graph height after the last served op.")
	fmt.Fprintf(&b, "dsg_height %d\n", c.height.Load())
	gauge("dsg_dummy_nodes", "Dummy-node population after the last served op.")
	fmt.Fprintf(&b, "dsg_dummy_nodes %d\n", c.dummies.Load())
	gauge("dsg_connections", "Open client connections.")
	fmt.Fprintf(&b, "dsg_connections %d\n", c.conns.Load())
	gauge("dsg_uptime_seconds", "Seconds since the collector started.")
	fmt.Fprintf(&b, "dsg_uptime_seconds %g\n", now.Sub(c.start).Seconds())
	return b.String()
}

// Handler returns an http.Handler serving /metrics (Prometheus text) and
// /healthz (liveness).
func (c *Collector) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, c.Render())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}
