package wire

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"lsasg"
	"lsasg/internal/obs"
)

// goldenFamilies is the pinned metric-family set: every `# TYPE` line
// Render must emit, in order. Adding or renaming a family is a deliberate
// act — update this list and docs/WIRE.md together.
var goldenFamilies = []string{
	"dsg_requests_total counter",
	"dsg_errors_total counter",
	"dsg_req_per_sec gauge",
	"dsg_route_distance_mean gauge",
	"dsg_rebalances_total counter",
	"dsg_migrated_keys_total counter",
	"dsg_kv_ops_total counter",
	"dsg_kv_hits_total counter",
	"dsg_kv_scanned_entries_total counter",
	"dsg_op_latency_seconds histogram",
	"dsg_stage_latency_seconds histogram",
	"dsg_retry_events_total counter",
	"dsg_goroutines gauge",
	"dsg_heap_alloc_bytes gauge",
	"dsg_gc_cycles_total counter",
	"dsg_gc_pause_seconds_total counter",
	"dsg_height gauge",
	"dsg_dummy_nodes gauge",
	"dsg_connections gauge",
	"dsg_uptime_seconds gauge",
}

func renderedFamilies(body string) []string {
	var fams []string
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			fams = append(fams, strings.TrimPrefix(line, "# TYPE "))
		}
	}
	return fams
}

// TestRenderGoldenFamilies pins the full exposition: the family set is
// stable even on a freshly-built collector with no traffic and no
// attached tracer, so scrapers can rely on every series existing.
func TestRenderGoldenFamilies(t *testing.T) {
	body := NewCollector().Render()
	got := renderedFamilies(body)
	if len(got) != len(goldenFamilies) {
		t.Fatalf("rendered %d families, want %d:\n%s", len(got), len(goldenFamilies), strings.Join(got, "\n"))
	}
	for i, want := range goldenFamilies {
		if got[i] != want {
			t.Errorf("family %d = %q, want %q", i, got[i], want)
		}
	}
}

// TestRenderHistogramSeries checks the latency families' label sets and
// the Prometheus histogram invariants: cumulative buckets ending at +Inf,
// +Inf count equal to _count, bounds in seconds.
func TestRenderHistogramSeries(t *testing.T) {
	c := NewCollector()
	tr := obs.NewTracer()
	c.setTracer(tr)
	tr.ObserveOp(obs.KindGet, 3*time.Microsecond)
	tr.ObserveOp(obs.KindGet, 40*time.Millisecond)
	tr.ObserveStage(obs.StageRouteLeg, 2*time.Microsecond)
	tr.RetryEvent(obs.EventUnknownKey)
	body := c.Render()

	for _, verb := range []string{"route", "get", "put", "delete", "scan"} {
		if !strings.Contains(body, `dsg_op_latency_seconds_bucket{verb="`+verb+`",le="+Inf"}`) {
			t.Errorf("missing +Inf bucket for verb %q", verb)
		}
		if !strings.Contains(body, `dsg_op_latency_seconds_count{verb="`+verb+`"}`) {
			t.Errorf("missing _count for verb %q", verb)
		}
	}
	for _, stage := range []string{"route_leg", "adjust_apply"} {
		if !strings.Contains(body, `dsg_stage_latency_seconds_bucket{stage="`+stage+`",le="+Inf"}`) {
			t.Errorf("missing +Inf bucket for stage %q", stage)
		}
	}
	for _, want := range []string{
		`dsg_op_latency_seconds_count{verb="get"} 2`,
		`dsg_stage_latency_seconds_count{stage="route_leg"} 1`,
		`dsg_retry_events_total{event="unknown_key"} 1`,
		`dsg_retry_events_total{event="dead_route"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// The first finite bound is 256ns in seconds; buckets are cumulative,
	// so the +Inf series must equal the count.
	if !strings.Contains(body, `le="2.56e-07"`) {
		t.Errorf("first bucket bound not rendered in seconds:\n%s", body)
	}
	if !strings.Contains(body, `dsg_op_latency_seconds_bucket{verb="get",le="+Inf"} 2`) {
		t.Errorf("+Inf bucket does not match count")
	}
}

// TestCollectorUnknownKeyFeedsTracer: wire-level unknown-key responses
// surface as retry events on the attached tracer.
func TestCollectorUnknownKeyFeedsTracer(t *testing.T) {
	c := NewCollector()
	tr := obs.NewTracer()
	c.setTracer(tr)
	c.observeError(CodeUnknownKey)
	c.observeError(CodeRetry) // not an unknown-key event
	if got := tr.RetryEvents(obs.EventUnknownKey); got != 1 {
		t.Errorf("unknown_key events = %d, want 1", got)
	}
	if !strings.Contains(c.Render(), `dsg_retry_events_total{event="unknown_key"} 1`) {
		t.Error("unknown_key retry event not rendered")
	}
}

// TestCollectorDeadRouteFeedsTracer: a route into a crashed node, end to
// end over the wire, surfaces as one dead_route retry event — the answer is
// final, so the client sends it once — in the tracer and in the scrape.
func TestCollectorDeadRouteFeedsTracer(t *testing.T) {
	nw, err := lsasg.New(16, lsasg.WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	srv, cl := startServer(t, nw)
	if err := cl.Crash(3); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Route(1, 3); !errors.Is(err, lsasg.ErrDeadNode) {
		t.Fatalf("route to crashed node returned %v, want ErrDeadNode", err)
	}
	c := srv.Collector()
	got := c.tracer.RetryEvents(obs.EventDeadRoute)
	if got != 1 {
		t.Fatalf("dead_route events = %d, want 1", got)
	}
	if want := fmt.Sprintf(`dsg_retry_events_total{event="dead_route"} %d`, got); !strings.Contains(c.Render(), want) {
		t.Errorf("scrape missing %q", want)
	}
}
