package wire

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lsasg"
	"lsasg/internal/obs"
)

// Loopback integration: a real server on 127.0.0.1, a real client, and the
// determinism contract — a trace replayed through the wire produces stats
// byte-identical to the same trace served in-process.

func startServer(t *testing.T, svc lsasg.Service, opts ...ServerOption) (*Server, *Client) {
	t.Helper()
	srv := NewServer(svc, opts...)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	cl, err := DialClient(lis.Addr().String(), WithTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return srv, cl
}

func TestLoopbackKVSurface(t *testing.T) {
	nw, err := lsasg.New(32, lsasg.WithSeed(3), lsasg.WithBatchSize(1))
	if err != nil {
		t.Fatal(err)
	}
	_, cl := startServer(t, nw)

	if _, _, found, err := cl.Get(0, 9); err != nil || found {
		t.Fatalf("get of unwritten key: found=%v err=%v", found, err)
	}
	ver, existed, err := cl.Put(0, 9, []byte("hello"))
	if err != nil || !existed || ver != 1 {
		t.Fatalf("put: version=%d existed=%v err=%v", ver, existed, err)
	}
	val, rver, found, err := cl.Get(3, 9)
	if err != nil || !found || string(val) != "hello" || rver != ver {
		t.Fatalf("get after put: %q v%d found=%v err=%v", val, rver, found, err)
	}
	for _, k := range []int{12, 3, 7} {
		if _, _, err := cl.Put(1, k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	kvs, err := cl.Scan(2, 0, 10)
	if err != nil || len(kvs) != 4 || kvs[0].Key != 3 || kvs[3].Key != 12 {
		t.Fatalf("scan = %v, %v", kvs, err)
	}
	if existed, err := cl.Delete(0, 9); err != nil || !existed {
		t.Fatalf("delete: existed=%v err=%v", existed, err)
	}
	resp, err := cl.Route(4, 20)
	if err != nil || resp.Node != 20 {
		t.Fatalf("route: %+v, %v", resp, err)
	}
	if resp.Hops < 1 {
		t.Errorf("route reported %d hops", resp.Hops)
	}
	if err := cl.Verify(); err != nil {
		t.Fatal(err)
	}

	// The remote error surface keeps its sentinels.
	if _, _, _, err := cl.Get(0, 99); !errors.Is(err, lsasg.ErrOutOfRange) {
		t.Errorf("out-of-range get returned %v, want ErrOutOfRange", err)
	}
	if _, err := cl.Scan(99, 0, 1); !errors.Is(err, lsasg.ErrOutOfRange) {
		t.Errorf("out-of-range scan origin returned %v, want ErrOutOfRange", err)
	}

	// Stats cycles the generation and reports what it served.
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Serve.Puts != 4 || st.Serve.Deletes != 1 || st.Serve.Scans != 1 || st.Serve.Shards != 1 {
		t.Errorf("serve stats: %+v", st.Serve)
	}
	if st.Cum.Requests == 0 {
		t.Errorf("cumulative stats empty: %+v", st.Cum)
	}

	// And traffic keeps flowing on the next generation.
	if _, _, err := cl.Put(5, 11, []byte("next-gen")); err != nil {
		t.Fatal(err)
	}
}

func TestLoopbackMembershipAdmin(t *testing.T) {
	nw, err := lsasg.New(16, lsasg.WithSeed(5), lsasg.WithBatchSize(1),
		lsasg.WithoutWorkingSetTracking())
	if err != nil {
		t.Fatal(err)
	}
	_, cl := startServer(t, nw)

	idx, err := cl.AddNode()
	if err != nil || idx != 16 {
		t.Fatalf("AddNode = %d, %v", idx, err)
	}
	// The widened keyspace is visible to edge validation immediately.
	if _, _, err := cl.Put(0, 16, []byte("new")); err != nil {
		t.Fatalf("put to joined node: %v", err)
	}
	if err := cl.RemoveNode(7); err != nil {
		t.Fatal(err)
	}
	if err := cl.Verify(); err != nil {
		t.Fatal(err)
	}

	// A sharded daemon serves the same verbs: the join lands in the last
	// shard and widens the directory, the leave finds the owning shard.
	snw, err := lsasg.NewSharded(32, lsasg.WithShards(4), lsasg.WithSeed(5),
		lsasg.WithBatchSize(1), lsasg.WithRebalanceWindow(1), lsasg.WithoutWorkingSetTracking())
	if err != nil {
		t.Fatal(err)
	}
	_, scl := startServer(t, snw)
	if idx, err := scl.AddNode(); err != nil || idx != 32 {
		t.Fatalf("sharded AddNode = %d, %v", idx, err)
	}
	if _, _, err := scl.Put(0, 32, []byte("new")); err != nil {
		t.Fatalf("cross-shard put to the joined node: %v", err)
	}
	if err := scl.RemoveNode(13); err != nil {
		t.Fatalf("sharded RemoveNode: %v", err)
	}
	if err := scl.RemoveNode(99); !errors.Is(err, lsasg.ErrOutOfRange) {
		t.Errorf("sharded RemoveNode out of range returned %v, want ErrOutOfRange", err)
	}
	if err := scl.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestLoopbackRouteMissKeepsGeneration: a route to a departed key is that
// op's miss — the client's retries cannot save it, the sentinel survives the
// wire — and nobody else's: the generation it was served in keeps serving,
// on one shard and on four.
func TestLoopbackRouteMissKeepsGeneration(t *testing.T) {
	for _, shards := range []int{1, 4} {
		nw, err := lsasg.New(16, lsasg.WithShards(shards), lsasg.WithSeed(7),
			lsasg.WithBatchSize(1), lsasg.WithRebalanceWindow(1))
		if err != nil {
			t.Fatal(err)
		}
		srv, cl := startServer(t, nw)
		if _, err := cl.Delete(0, 5); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Route(1, 5); !errors.Is(err, lsasg.ErrUnknownKey) {
			t.Fatalf("shards=%d: route to departed key returned %v, want ErrUnknownKey", shards, err)
		}
		if _, _, err := cl.Put(2, 9, []byte("alive")); err != nil {
			t.Fatalf("shards=%d: traffic after the miss: %v", shards, err)
		}
		stats, err := cl.Stats() // the first admin cycle: everything so far was one generation
		if err != nil {
			t.Fatal(err)
		}
		srv.col.mu.Lock()
		gens := srv.col.gens
		srv.col.mu.Unlock()
		if gens != 1 || stats.Serve.Requests < 3 || stats.Serve.Shards != shards {
			t.Errorf("shards=%d: %d generations, last served %d requests over %d shards; want 1 generation holding the delete, every route attempt and the put",
				shards, gens, stats.Serve.Requests, stats.Serve.Shards)
		}
		if err := cl.Verify(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLoopbackCrashInjection(t *testing.T) {
	nw, err := lsasg.New(16, lsasg.WithSeed(9), lsasg.WithBatchSize(1))
	if err != nil {
		t.Fatal(err)
	}
	_, cl := startServer(t, nw)
	if err := cl.Crash(3); err != nil {
		t.Fatal(err)
	}
	// Routing straight at the crashed node trips the failure — for that op.
	if _, err := cl.Route(1, 3); !errors.Is(err, lsasg.ErrDeadNode) {
		t.Fatalf("route to crashed node returned %v, want ErrDeadNode", err)
	}
	if err := cl.Crash(99); !errors.Is(err, lsasg.ErrOutOfRange) {
		t.Fatalf("crash of out-of-range node returned %v", err)
	}

	// A sharded daemon maps the same mistake to the same code.
	sh, err := lsasg.NewSharded(16, lsasg.WithShards(2), lsasg.WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	_, shcl := startServer(t, sh)
	if err := shcl.Crash(9999); !errors.Is(err, lsasg.ErrOutOfRange) {
		t.Fatalf("sharded crash of out-of-range node returned %v, want ErrOutOfRange", err)
	}
}

func inProcessReplay(t *testing.T, svc lsasg.Service, ops []lsasg.Op) lsasg.ServeStats {
	t.Helper()
	ch := make(chan lsasg.Op)
	go func() {
		defer close(ch)
		for _, op := range ops {
			ch <- op
		}
	}()
	st, err := svc.ServeOps(context.Background(), ch, nil)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestReplayDeterminism(t *testing.T) {
	const n, length, seed = 64, 400, 17
	cases := []struct {
		name  string
		build func(extra ...lsasg.Option) (lsasg.Service, error)
	}{
		{"single", func(extra ...lsasg.Option) (lsasg.Service, error) {
			opts := append([]lsasg.Option{lsasg.WithSeed(seed), lsasg.WithBatchSize(1)}, extra...)
			return lsasg.New(n, opts...)
		}},
		{"sharded", func(extra ...lsasg.Option) (lsasg.Service, error) {
			opts := append([]lsasg.Option{lsasg.WithShards(4), lsasg.WithSeed(seed),
				lsasg.WithBatchSize(1), lsasg.WithRebalanceWindow(1)}, extra...)
			return lsasg.NewSharded(n, opts...)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ops := ReplayTrace(n, length, seed)

			// The reference run is untraced; the wire run carries full
			// instrumentation. Matching stats pin the contract that tracing
			// never perturbs the deterministic pipeline.
			ref, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			want := StatsColumns(inProcessReplay(t, ref, ops))

			svc, err := tc.build(lsasg.WithTracing())
			if err != nil {
				t.Fatal(err)
			}
			tr := svc.(interface{ Tracer() *obs.Tracer }).Tracer()
			if tr == nil {
				t.Fatal("WithTracing left the tracer nil")
			}
			_, cl := startServer(t, svc, WithTracer(tr))
			resps, stats, err := cl.Replay(ops)
			if err != nil {
				t.Fatal(err)
			}
			if len(resps) != len(ops) {
				t.Fatalf("%d responses for %d ops", len(resps), len(ops))
			}
			for i, r := range resps {
				if r.Code != CodeOK {
					t.Fatalf("op %d (%v) failed: %s", i, r.Verb, r.Msg)
				}
			}
			got := StatsColumns(stats.Serve)
			if got != want {
				t.Errorf("wire replay diverged from the in-process run:\n got  %s\n want %s", got, want)
			}
			if err := cl.Verify(); err != nil {
				t.Fatal(err)
			}

			// The instrumented run actually measured: every replayed op fed
			// its verb histogram, and the slow-span ring retained spans.
			spans, lats, err := cl.TraceDump(0)
			if err != nil {
				t.Fatal(err)
			}
			if len(spans) == 0 {
				t.Error("trace dump returned no spans after a 400-op replay")
			}
			var measured int64
			for _, l := range lats {
				measured += l.Count
			}
			if measured != int64(len(ops)) {
				t.Errorf("verb histograms measured %d ops, want %d", measured, len(ops))
			}
			for _, s := range spans {
				if s.TotalNanos <= 0 || len(s.Legs) == 0 {
					t.Errorf("degenerate span: %+v", s)
				}
			}
		})
	}
}

func TestTraceDumpDisabled(t *testing.T) {
	nw, err := lsasg.New(16, lsasg.WithSeed(19), lsasg.WithBatchSize(1))
	if err != nil {
		t.Fatal(err)
	}
	_, cl := startServer(t, nw) // no WithTracer
	if _, _, err := cl.TraceDump(8); err == nil || !strings.Contains(err.Error(), "tracing is not enabled") {
		t.Fatalf("trace dump on untraced daemon returned %v, want invalid-request refusal", err)
	}
}

func TestTraceDumpLimit(t *testing.T) {
	nw, err := lsasg.New(32, lsasg.WithSeed(21), lsasg.WithBatchSize(1), lsasg.WithTracing())
	if err != nil {
		t.Fatal(err)
	}
	_, cl := startServer(t, nw, WithTracer(nw.Tracer()))
	for i := 0; i < 20; i++ {
		if _, _, err := cl.Put(i, (i+5)%32, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	spans, lats, err := cl.TraceDump(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 || len(spans) > 3 {
		t.Fatalf("limit 3 returned %d spans", len(spans))
	}
	// Slowest-first ordering survives the wire.
	for i := 1; i < len(spans); i++ {
		if spans[i].TotalNanos > spans[i-1].TotalNanos {
			t.Errorf("spans out of order: %d then %d ns", spans[i-1].TotalNanos, spans[i].TotalNanos)
		}
	}
	var put int64
	for _, l := range lats {
		if l.Kind == obs.KindPut {
			put = l.Count
		}
	}
	if put != 20 {
		t.Errorf("put latency count = %d, want 20", put)
	}
}

// TestTraceDumpKeepsGeneration: a trace dump reads the tracer, not the
// service, so one taken between two ops must leave them in the same serving
// generation — one generation counted, both ops in its ServeStats.
func TestTraceDumpKeepsGeneration(t *testing.T) {
	nw, err := lsasg.New(32, lsasg.WithSeed(23), lsasg.WithBatchSize(1), lsasg.WithTracing())
	if err != nil {
		t.Fatal(err)
	}
	srv, cl := startServer(t, nw, WithTracer(nw.Tracer()))
	if _, _, err := cl.Put(1, 9, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, lats, err := cl.TraceDump(0); err != nil || len(lats) == 0 {
		t.Fatalf("mid-generation trace dump: %d latency rows, %v", len(lats), err)
	}
	if _, _, err := cl.Put(2, 17, []byte("b")); err != nil {
		t.Fatal(err)
	}
	stats, err := cl.Stats() // the one admin cycle of this run
	if err != nil {
		t.Fatal(err)
	}
	if stats.Serve.Requests != 2 || stats.Serve.Batches != 2 {
		t.Errorf("generation around the dump served %d requests in %d batches, want 2 in 2",
			stats.Serve.Requests, stats.Serve.Batches)
	}
	srv.col.mu.Lock()
	gens := srv.col.gens
	srv.col.mu.Unlock()
	if gens != 1 {
		t.Errorf("%d generations after put, trace, put, stats; want 1", gens)
	}
}

func TestShutdownDrains(t *testing.T) {
	nw, err := lsasg.New(16, lsasg.WithSeed(11), lsasg.WithBatchSize(1))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(nw)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	cl, err := DialClient(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, _, err := cl.Put(0, 5, []byte("pre")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	// A second shutdown is a no-op, and the port no longer answers.
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("repeat shutdown: %v", err)
	}
	if _, err := DialClient(lis.Addr().String(), WithDialTimeout(200*time.Millisecond)); err == nil {
		t.Error("dial after shutdown must fail")
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	return string(body)
}

func TestMetricsEndpoint(t *testing.T) {
	nw, err := lsasg.New(32, lsasg.WithSeed(13), lsasg.WithBatchSize(1))
	if err != nil {
		t.Fatal(err)
	}
	srv, cl := startServer(t, nw)

	cl.Put(0, 9, []byte("x"))
	cl.Get(1, 9)
	cl.Scan(2, 0, 4)
	cl.Route(3, 20)
	if _, err := cl.Stats(); err != nil { // cycles the generation: snapshots height
		t.Fatal(err)
	}

	ts := httptest.NewServer(srv.Collector().Handler())
	defer ts.Close()
	body := httpGet(t, ts.URL+"/metrics")
	for _, want := range []string{
		`dsg_requests_total{verb="get"} 1`,
		`dsg_requests_total{verb="put"} 1`,
		`dsg_requests_total{verb="scan"} 1`,
		`dsg_requests_total{verb="route"} 1`,
		`dsg_requests_total{verb="stats"} 1`,
		"dsg_req_per_sec",
		"dsg_adjust_lag_mean",
		"dsg_route_distance_mean",
		"dsg_rebalances_total 0",
		"dsg_migrated_keys_total 0",
		`dsg_kv_ops_total{op="get"} 1`,
		`dsg_kv_hits_total{op="get"} 1`,
		"dsg_kv_scanned_entries_total 1",
		"dsg_generations_total 1",
		"dsg_connections 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if !strings.Contains(body, "dsg_height ") || strings.Contains(body, "dsg_height 0") {
		t.Errorf("dsg_height not snapshotted at the generation boundary:\n%s", body)
	}
	if got := httpGet(t, ts.URL+"/healthz"); !strings.Contains(got, "ok") {
		t.Errorf("healthz = %q", got)
	}
}
