package wire

import (
	"fmt"
	"math/rand"
	"strconv"
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

// TestRenderErrorsInCodeOrder: dsg_errors_total's series come out in
// ErrCode order, so two scrapes of an idle collector render the family
// byte-identically.
func TestRenderErrorsInCodeOrder(t *testing.T) {
	c := NewCollector()
	c.observeError(CodeUnknownKey)
	c.observeError(CodeRetry) // not an unknown-key response
	c.observeError(CodeDeadNode)
	c.observeError(CodeDeadNode)
	family := func() string {
		var lines []string
		for _, line := range strings.Split(c.Render(), "\n") {
			if strings.HasPrefix(line, "dsg_errors_total{") {
				lines = append(lines, line)
			}
		}
		return strings.Join(lines, "\n")
	}
	want := strings.Join([]string{
		`dsg_errors_total{code="unknown_key"} 1`,
		`dsg_errors_total{code="dead_node"} 2`,
		`dsg_errors_total{code="out_of_range"} 0`,
		`dsg_errors_total{code="retry"} 1`,
		`dsg_errors_total{code="invalid"} 0`,
		`dsg_errors_total{code="internal"} 0`,
	}, "\n")
	for scrape := 0; scrape < 2; scrape++ {
		if got := family(); got != want {
			t.Fatalf("scrape %d rendered dsg_errors_total as\n%s\nwant\n%s", scrape, got, want)
		}
	}
}

// sample reads one series' value off a /metrics body.
func sample(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("no %s on /metrics", series)
	return 0
}

// TestScrapeMatchesStats: every family rendered from the service's books
// reads what Stats reads over the same connection — on a replay whose
// routes miss a removed and a crashed endpoint beside Get, Put, Delete and
// Scan traffic — and the misses are the unknown-key and dead-node counts
// of dsg_errors_total.
func TestScrapeMatchesStats(t *testing.T) {
	const n, removed, crashed = 64, 9, 21
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("s=%d", shards), func(t *testing.T) {
			nw, err := lsasg.New(n, lsasg.WithShards(shards), lsasg.WithSeed(3), lsasg.WithRebalanceWindow(16))
			if err != nil {
				t.Fatal(err)
			}
			srv, cl := startServer(t, nw)
			if err := cl.RemoveNode(removed); err != nil {
				t.Fatal(err)
			}
			if err := cl.Crash(crashed); err != nil {
				t.Fatal(err)
			}

			rng := rand.New(rand.NewSource(int64(shards)))
			key := func() int { // skewed towards shard 0, never a churned key
				for {
					k := rng.Intn(n)
					if rng.Intn(10) < 7 {
						k = rng.Intn(n / 8)
					}
					if k != removed && k != crashed {
						return k
					}
				}
			}
			var ops []lsasg.Op
			for i := 0; i < 400; i++ {
				if i%20 == 0 {
					ops = append(ops, lsasg.RouteOp(key(), removed), lsasg.RouteOp(key(), crashed))
				}
				src, dst := key(), key()
				switch r := rng.Intn(10); {
				case r < 4 && src != dst:
					ops = append(ops, lsasg.RouteOp(src, dst))
				case r < 6:
					ops = append(ops, lsasg.GetOp(src, dst))
				case r < 8:
					ops = append(ops, lsasg.PutOp(src, dst, []byte(fmt.Sprint(i))))
				case r < 9:
					ops = append(ops, lsasg.DeleteOp(src, dst))
				default:
					ops = append(ops, lsasg.ScanOp(src, dst, 1+rng.Intn(8)))
				}
			}
			misses := map[ErrCode]float64{}
			for i, op := range ops {
				req, _ := RequestFor(op)
				resp, err := cl.Do(req)
				switch resp.Code {
				case CodeOK:
				case CodeUnknownKey, CodeDeadNode:
					misses[resp.Code]++
				default:
					t.Fatalf("op %d %+v: %v", i, op, err)
				}
			}
			if misses[CodeUnknownKey] == 0 || misses[CodeDeadNode] == 0 {
				t.Fatalf("misses %v: the replay must miss a removed and a crashed endpoint", misses)
			}

			payload, err := cl.Stats()
			if err != nil {
				t.Fatal(err)
			}
			st := payload.Cum
			if st.Requests != len(ops) || st.Gets == 0 || st.Puts == 0 || st.Deletes == 0 || st.Scans == 0 {
				t.Fatalf("the books do not hold the replay of %d ops: %+v", len(ops), st)
			}
			if shards > 1 && st.Rebalances == 0 {
				t.Fatal("the skewed replay provoked no migration")
			}
			body := srv.Collector().Render()
			for series, want := range map[string]float64{
				"dsg_route_distance_mean":              st.MeanRouteDistance,
				`dsg_kv_ops_total{op="get"}`:           float64(st.Gets),
				`dsg_kv_ops_total{op="put"}`:           float64(st.Puts),
				`dsg_kv_ops_total{op="delete"}`:        float64(st.Deletes),
				`dsg_kv_ops_total{op="scan"}`:          float64(st.Scans),
				`dsg_kv_hits_total{op="get"}`:          float64(st.GetHits),
				`dsg_kv_hits_total{op="put_insert"}`:   float64(st.PutInserts),
				`dsg_kv_hits_total{op="delete"}`:       float64(st.DeleteHits),
				"dsg_kv_scanned_entries_total":         float64(st.ScannedEntries),
				"dsg_rebalances_total":                 float64(st.Rebalances),
				"dsg_migrated_keys_total":              float64(st.MigratedKeys),
				"dsg_height":                           float64(st.Height),
				"dsg_dummy_nodes":                      float64(st.DummyCount),
				`dsg_errors_total{code="unknown_key"}`: misses[CodeUnknownKey],
				`dsg_errors_total{code="dead_node"}`:   misses[CodeDeadNode],
			} {
				if got := sample(t, body, series); got != want {
					t.Errorf("%s = %v on /metrics, %v in Stats", series, got, want)
				}
			}
			// Misses are served requests: the wire's request count is the
			// books' count.
			var served float64
			for v := VerbRoute; v <= VerbScan; v++ {
				served += sample(t, body, fmt.Sprintf("dsg_requests_total{verb=%q}", v))
			}
			if served != float64(st.Requests) {
				t.Errorf("dsg_requests_total sums to %v over the op verbs, Stats counts %d requests", served, st.Requests)
			}
		})
	}
}
