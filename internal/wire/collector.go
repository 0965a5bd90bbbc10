package wire

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lsasg"
	"lsasg/internal/obs"
)

// Collector renders the daemon's metrics without touching the service. It
// keeps two kinds of figures. The wire's own — requests by verb, errors by
// code, connections — advance on lock-free atomics as frames are answered.
// The service's are one Stats snapshot: the connection reader holding the
// service lock stores the service's books (Service.Gauges) after every frame
// it serves, so a scrape reads the very books Stats answers from and never
// waits for the service. It renders the Prometheus text exposition format
// (metric names are listed in docs/WIRE.md).
type Collector struct {
	start time.Time

	// Requests served, by Verb: ops the service served — answered OK or as
	// a miss, the requests Stats counts — and admin verbs.
	ops [verbMax + 1]atomic.Int64
	// Per-code error counters.
	errs [CodeInternal + 1]atomic.Int64

	conns atomic.Int64

	// tracer backs the latency-histogram families. Always non-nil:
	// NewCollector installs a private one so Render always emits the full
	// family set; WithTracer swaps in the service's live tracer before the
	// server starts, so every family then reflects real serving
	// measurements.
	tracer *obs.Tracer

	// mu guards the service's books as of the last frame served and the
	// previous scrape's observation, which the req/s gauge is taken against.
	mu        sync.Mutex
	books     lsasg.Stats
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

// observe counts one served request.
func (c *Collector) observe(v Verb) { c.ops[v].Add(1) }

// observeError records one non-OK response — or, under CodeInternal, a
// failure behind an op that was answered OK.
func (c *Collector) observeError(code ErrCode) {
	if int(code) < len(c.errs) {
		c.errs[code].Add(1)
	}
}

// observeService stores the service's books; the server calls it under the
// service lock after every frame it serves.
func (c *Collector) observeService(st lsasg.Stats) {
	c.mu.Lock()
	c.books = st
	c.mu.Unlock()
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

// codeNames labels dsg_errors_total's series, in ErrCode order.
var codeNames = [...]string{
	CodeUnknownKey: "unknown_key", CodeDeadNode: "dead_node",
	CodeOutOfRange: "out_of_range", CodeRetry: "retry",
	CodeInvalid: "invalid", CodeInternal: "internal",
}

// Render writes the Prometheus text exposition of every metric.
func (c *Collector) Render() string {
	var b strings.Builder
	now := time.Now()
	total := c.opTotal()

	c.mu.Lock()
	dt := now.Sub(c.prevAt).Seconds()
	rate := 0.0
	if dt > 0 {
		rate = float64(total-c.prevTotal) / dt
	}
	c.prevAt, c.prevTotal = now, total
	books := c.books
	c.mu.Unlock()

	counter := func(name, help string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	}
	gauge := func(name, help string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
	}

	counter("dsg_requests_total", "Requests served by verb; an op answered as a miss counts, as in Stats.")
	for v := VerbRoute; v <= verbMax; v++ {
		fmt.Fprintf(&b, "dsg_requests_total{verb=%q} %d\n", v.String(), c.ops[v].Load())
	}

	counter("dsg_errors_total", "Non-OK responses by wire error code; internal also counts failures behind an answered op.")
	for code := CodeUnknownKey; code <= CodeInternal; code++ {
		fmt.Fprintf(&b, "dsg_errors_total{code=%q} %d\n", codeNames[code], c.errs[code].Load())
	}

	gauge("dsg_req_per_sec", "Op throughput since the previous scrape.")
	fmt.Fprintf(&b, "dsg_req_per_sec %g\n", rate)

	gauge("dsg_route_distance_mean", "Mean routing distance over every served request, misses included (Stats.MeanRouteDistance).")
	fmt.Fprintf(&b, "dsg_route_distance_mean %g\n", books.MeanRouteDistance)

	counter("dsg_rebalances_total", "Skew-driven shard migrations.")
	fmt.Fprintf(&b, "dsg_rebalances_total %d\n", books.Rebalances)
	counter("dsg_migrated_keys_total", "Keys moved across shards by the rebalancer.")
	fmt.Fprintf(&b, "dsg_migrated_keys_total %d\n", books.MigratedKeys)

	counter("dsg_kv_ops_total", "KV data-plane ops the service served, by kind.")
	fmt.Fprintf(&b, "dsg_kv_ops_total{op=\"get\"} %d\n", books.Gets)
	fmt.Fprintf(&b, "dsg_kv_ops_total{op=\"put\"} %d\n", books.Puts)
	fmt.Fprintf(&b, "dsg_kv_ops_total{op=\"delete\"} %d\n", books.Deletes)
	fmt.Fprintf(&b, "dsg_kv_ops_total{op=\"scan\"} %d\n", books.Scans)
	counter("dsg_kv_hits_total", "KV op outcomes: get hits, put joins, delete hits.")
	fmt.Fprintf(&b, "dsg_kv_hits_total{op=\"get\"} %d\n", books.GetHits)
	fmt.Fprintf(&b, "dsg_kv_hits_total{op=\"put_insert\"} %d\n", books.PutInserts)
	fmt.Fprintf(&b, "dsg_kv_hits_total{op=\"delete\"} %d\n", books.DeleteHits)
	counter("dsg_kv_scanned_entries_total", "Entries returned across all scans.")
	fmt.Fprintf(&b, "dsg_kv_scanned_entries_total %d\n", books.ScannedEntries)

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

	gauge("dsg_height", "Skip-graph height after the last settled adjustment.")
	fmt.Fprintf(&b, "dsg_height %d\n", books.Height)
	gauge("dsg_dummy_nodes", "Dummy-node population after the last settled adjustment.")
	fmt.Fprintf(&b, "dsg_dummy_nodes %d\n", books.DummyCount)
	gauge("dsg_connections", "Open client connections.")
	fmt.Fprintf(&b, "dsg_connections %d\n", c.conns.Load())
	gauge("dsg_uptime_seconds", "Seconds since the collector started.")
	fmt.Fprintf(&b, "dsg_uptime_seconds %g\n", now.Sub(c.start).Seconds())
	return b.String()
}
