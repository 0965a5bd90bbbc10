package wire

import (
	"bufio"
	"context"
	"errors"
	"math/rand"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
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
	srv, addr := listen(t, svc, opts...)
	return srv, dial(t, addr)
}

// listen starts a server on a loopback port and returns its address.
func listen(t *testing.T, svc lsasg.Service, opts ...ServerOption) (*Server, string) {
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
	return srv, lis.Addr().String()
}

// dial opens a client to a started server. Extra options come after
// the test default, so a test can switch the retry loop off.
func dial(t *testing.T, addr string, opts ...ClientOption) *Client {
	t.Helper()
	cl, err := DialClient(addr, append([]ClientOption{WithTimeout(10 * time.Second)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

func TestLoopbackKVSurface(t *testing.T) {
	nw, err := lsasg.New(32, lsasg.WithSeed(3))
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

	// Stats counts every op served — the two rejected at the edge never
	// reached the service — and traffic keeps flowing after it.
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Cum.Requests != 9 {
		t.Errorf("cumulative stats count %d requests, want the 9 served: %+v", st.Cum.Requests, st.Cum)
	}
	if _, _, err := cl.Put(5, 11, []byte("after-stats")); err != nil {
		t.Fatal(err)
	}
}

func TestLoopbackMembershipAdmin(t *testing.T) {
	nw, err := lsasg.New(16, lsasg.WithSeed(5))
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
		lsasg.WithRebalanceWindow(1))
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

// TestLoopbackRouteMissIsCounted: a route to a departed key is that op's
// miss — the sentinel survives the wire, the daemon counts it as the served
// request it is in ServeOps — and nobody else's: a second connection sees
// only successes and no frame anywhere is answered retry, on one shard and on
// four.
func TestLoopbackRouteMissIsCounted(t *testing.T) {
	for _, shards := range []int{1, 4} {
		nw, err := lsasg.New(16, lsasg.WithShards(shards), lsasg.WithSeed(7), lsasg.WithRebalanceWindow(1))
		if err != nil {
			t.Fatal(err)
		}
		srv, addr := listen(t, nw)
		// Default clients: an unknown key is answered once, not retried, so
		// calls made are frames counted.
		cl, other := dial(t, addr), dial(t, addr)

		if _, err := cl.Delete(0, 5); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Route(1, 5); !errors.Is(err, lsasg.ErrUnknownKey) {
			t.Fatalf("shards=%d: route to departed key returned %v, want ErrUnknownKey", shards, err)
		}
		if _, _, err := other.Put(2, 9, []byte("alive")); err != nil {
			t.Fatalf("shards=%d: the other connection's put after the miss: %v", shards, err)
		}
		if _, _, found, err := other.Get(3, 9); err != nil || !found {
			t.Fatalf("shards=%d: the other connection's get after the miss: found=%v err=%v", shards, found, err)
		}
		stats, err := cl.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Cum.Requests != 4 {
			t.Errorf("shards=%d: daemon counted %d requests, the clients made 4 op calls", shards, stats.Cum.Requests)
		}
		body := srv.Collector().Render()
		for _, want := range []string{
			`dsg_errors_total{code="unknown_key"} 1`,
			`dsg_errors_total{code="retry"} 0`,
		} {
			if !strings.Contains(body, want) {
				t.Errorf("shards=%d: metrics missing %q", shards, want)
			}
		}
		if err := cl.Verify(); err != nil {
			t.Fatal(err)
		}
	}
}

// faultyService fails every op on one key before it reaches the service —
// the stand-in for an adjuster fault inside Do.
type faultyService struct {
	lsasg.Service
	failKey int
}

func (f faultyService) Do(op lsasg.Op) (lsasg.OpResult, error) {
	if op.Dst == f.failKey {
		return lsasg.OpResult{}, errors.New("injected adjuster fault")
	}
	return f.Service.Do(op)
}

// TestFailedOpIsItsSendersAlone: an op that fails inside the service costs
// its sender one error frame; the next op of another connection, and of the
// same one, is served normally, and nothing is answered retry.
func TestFailedOpIsItsSendersAlone(t *testing.T) {
	nw, err := lsasg.New(16, lsasg.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := listen(t, faultyService{Service: nw, failKey: 7})
	cl, other := dial(t, addr), dial(t, addr)

	_, _, err = cl.Put(0, 7, []byte("doomed"))
	if err == nil || !strings.Contains(err.Error(), "injected adjuster fault") || errors.Is(err, ErrRetry) {
		t.Fatalf("put on the faulty key returned %v, want the injected fault", err)
	}
	if _, _, err := other.Put(1, 9, []byte("fine")); err != nil {
		t.Fatalf("another connection's op after the fault: %v", err)
	}
	if _, _, err := cl.Put(0, 8, []byte("fine too")); err != nil {
		t.Fatalf("the same connection's next op after the fault: %v", err)
	}
	body := srv.Collector().Render()
	for _, want := range []string{
		`dsg_errors_total{code="internal"} 1`,
		`dsg_errors_total{code="retry"} 0`,
		`dsg_requests_total{verb="put"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// barrierFaultService serves every op and then reports a failed rebalance
// barrier behind it, the way Network.Do does.
type barrierFaultService struct{ lsasg.Service }

func (f barrierFaultService) Do(op lsasg.Op) (lsasg.OpResult, error) {
	r, err := f.Service.Do(op)
	if err != nil {
		return r, err
	}
	return r, errors.Join(lsasg.ErrBarrier, errors.New("injected migration fault"))
}

// TestBarrierFailureIsNotTheSendersError: an op that took effect is answered
// with its outcome even when the barrier behind it failed; the failure is
// counted as the daemon's internal error and sent to nobody.
func TestBarrierFailureIsNotTheSendersError(t *testing.T) {
	nw, err := lsasg.New(16, lsasg.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := listen(t, barrierFaultService{nw})
	cl := dial(t, addr)
	ver, existed, err := cl.Put(0, 7, []byte("kept"))
	if err != nil || !existed || ver == 0 {
		t.Fatalf("put behind a failed barrier = (%d, %v, %v), want its outcome and no error", ver, existed, err)
	}
	if val, _, found, err := cl.Get(1, 7); err != nil || !found || string(val) != "kept" {
		t.Fatalf("get behind a failed barrier = (%q, %v, %v)", val, found, err)
	}
	body := srv.Collector().Render()
	for _, want := range []string{
		`dsg_errors_total{code="internal"} 2`,
		`dsg_requests_total{verb="put"} 1`,
		`dsg_requests_total{verb="get"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestLoopbackCrashInjection(t *testing.T) {
	nw, err := lsasg.New(16, lsasg.WithSeed(9))
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

// inProcessReplay serves the trace through ServeOps and returns the service's
// statistics after it.
func inProcessReplay(t *testing.T, svc lsasg.Service, ops []lsasg.Op) lsasg.Stats {
	t.Helper()
	ch := make(chan lsasg.Op)
	go func() {
		defer close(ch)
		for _, op := range ops {
			ch <- op
		}
	}()
	if _, err := svc.ServeOps(context.Background(), ch, nil); err != nil {
		t.Fatal(err)
	}
	return svc.Stats()
}

// replayCases are the services the determinism tests compare across the
// wire: a single graph and four shards at the daemon's default load window,
// and four shards at a 50-op load window — the daemon answers op by op
// whatever the window, so every per-shard leg order and every planner input
// must still equal the in-process run that serves 50 ops a window.
//
// legless marks the case whose directories put a few of the trace's routes
// between two boundary keys: such a route has no shard leg, so the tracer
// has nothing to time (TestReplayDeterminism counts them exactly).
var replayCases = []struct {
	name    string
	opts    []lsasg.Option
	legless bool
}{
	{"single", nil, false},
	{"sharded", []lsasg.Option{lsasg.WithShards(4), lsasg.WithRebalanceWindow(1)}, false},
	{"sharded-window50", []lsasg.Option{lsasg.WithShards(4), lsasg.WithRebalanceWindow(50)}, true},
}

// measuredOps sums the verb histograms' observation counts.
func measuredOps(lats []obs.VerbLatency) (n int64) {
	for _, l := range lats {
		n += l.Count
	}
	return n
}

func TestReplayDeterminism(t *testing.T) {
	const n, length, seed = 64, 400, 17
	for _, tc := range replayCases {
		t.Run(tc.name, func(t *testing.T) {
			ops := ReplayTrace(n, length, seed)
			opts := append([]lsasg.Option{lsasg.WithSeed(seed)}, tc.opts...)

			// The reference run is untraced; the wire run carries full
			// instrumentation. Matching stats pin the contract that tracing
			// never perturbs the deterministic pipeline.
			ref, err := lsasg.New(n, opts...)
			if err != nil {
				t.Fatal(err)
			}
			want := inProcessReplay(t, ref, ops)
			if ref.Shards() > 1 && want.Rebalances == 0 {
				t.Fatal("the sharded reference run never rebalanced; the comparison would not cover the planner")
			}

			svc, err := lsasg.New(n, append(opts, lsasg.WithTracing())...)
			if err != nil {
				t.Fatal(err)
			}
			_, cl := startServer(t, svc, WithTracer(svc.Tracer()))
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
			if got, want := StatsColumns(stats.Cum), StatsColumns(want); got != want {
				t.Errorf("wire replay diverged from the in-process run:\n got  %s\n want %s", got, want)
			}
			if err := cl.Verify(); err != nil {
				t.Fatal(err)
			}

			// The instrumented run actually measured: every replayed op fed
			// its verb histogram, and the slow-span ring retained spans,
			// numbered by the op's position in the replay.
			spans, lats, err := cl.TraceDump(0)
			if err != nil {
				t.Fatal(err)
			}
			if len(spans) < 2 {
				t.Fatalf("trace dump returned %d spans after a 400-op replay", len(spans))
			}
			// Every op is measured except a leg-less route, and the wire run
			// makes the in-process run's decisions, so a traced in-process
			// twin gives the exact count.
			timed := int64(len(ops))
			if tc.legless {
				twin, err := lsasg.New(n, append(opts, lsasg.WithTracing())...)
				if err != nil {
					t.Fatal(err)
				}
				inProcessReplay(t, twin, ops)
				timed = measuredOps(twin.Tracer().VerbLatencies())
				if timed >= int64(len(ops)) || timed < int64(len(ops))-8 {
					t.Fatalf("the traced twin measured %d of %d ops; the case no longer has its few leg-less routes", timed, len(ops))
				}
			}
			if measured := measuredOps(lats); measured != timed {
				t.Errorf("verb histograms measured %d ops, want %d", measured, timed)
			}
			sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
			for i, s := range spans {
				if s.TotalNanos <= 0 || len(s.Legs) == 0 {
					t.Errorf("degenerate span: %+v", s)
				}
				if s.Seq < 1 || s.Seq > int64(len(ops)) || (i > 0 && s.Seq <= spans[i-1].Seq) {
					t.Errorf("span seqs do not follow the replay: %d after %d (of %d ops)", s.Seq, spans[max(i, 1)-1].Seq, len(ops))
				}
			}
		})
	}
}

// replaySync sends the trace one synchronous frame at a time and returns
// every reply (sequence numbers zeroed) and the final stats columns. With
// every > 0 a stats, a verify and a trace frame follow each every-th op.
func replaySync(t *testing.T, svc *lsasg.Network, ops []lsasg.Op, every int) (replies []string, columns string) {
	t.Helper()
	_, cl := startServer(t, svc, WithTracer(svc.Tracer()))
	for i, op := range ops {
		req, _ := RequestFor(op)
		resp, err := cl.Do(req)
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		resp.Seq = 0
		replies = append(replies, string(resp.Encode()))
		if every > 0 && (i+1)%every == 0 {
			if _, err := cl.Stats(); err != nil {
				t.Fatal(err)
			}
			if err := cl.Verify(); err != nil {
				t.Fatal(err)
			}
			if _, _, err := cl.TraceDump(4); err != nil {
				t.Fatal(err)
			}
		}
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	return replies, StatsColumns(st.Cum)
}

// TestAdminReadsDoNotPerturb: stats, verify and trace frames interleaved
// with a replay run between ops against the idle service, so every reply and
// the final stats columns are byte-identical to the undisturbed replay's.
func TestAdminReadsDoNotPerturb(t *testing.T) {
	const n, length, seed = 64, 400, 17
	for _, tc := range replayCases {
		t.Run(tc.name, func(t *testing.T) {
			ops := ReplayTrace(n, length, seed)
			var runs [2][]string
			var cols [2]string
			for i, every := range []int{0, 25} {
				svc, err := lsasg.New(n, append([]lsasg.Option{lsasg.WithSeed(seed), lsasg.WithTracing()}, tc.opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				runs[i], cols[i] = replaySync(t, svc, ops, every)
			}
			if cols[0] != cols[1] {
				t.Errorf("admin reads moved the stats columns:\n plain       %s\n interleaved %s", cols[0], cols[1])
			}
			for i := range runs[0] {
				if runs[0][i] != runs[1][i] {
					t.Fatalf("reply %d differs once admin reads are interleaved", i)
				}
			}
		})
	}
}

func TestTraceDumpDisabled(t *testing.T) {
	nw, err := lsasg.New(16, lsasg.WithSeed(19))
	if err != nil {
		t.Fatal(err)
	}
	_, cl := startServer(t, nw) // no WithTracer
	if _, _, err := cl.TraceDump(8); err == nil || !strings.Contains(err.Error(), "tracing is not enabled") {
		t.Fatalf("trace dump on untraced daemon returned %v, want invalid-request refusal", err)
	}
}

func TestTraceDumpLimit(t *testing.T) {
	nw, err := lsasg.New(32, lsasg.WithSeed(21), lsasg.WithTracing())
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

func TestShutdownDrains(t *testing.T) {
	nw, err := lsasg.New(16, lsasg.WithSeed(11))
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
	if _, err := DialClient(lis.Addr().String()); err == nil {
		t.Error("dial after shutdown must fail")
	}
}

// TestMetricsEndpoint: the collector's rendering — the body dsgserve answers
// /metrics with (its endpoint is tested in cmd/dsgserve) — counts the ops
// served over the wire, by verb and KV outcome.
func TestMetricsEndpoint(t *testing.T) {
	nw, err := lsasg.New(32, lsasg.WithSeed(13))
	if err != nil {
		t.Fatal(err)
	}
	srv, cl := startServer(t, nw)

	cl.Put(0, 9, []byte("x"))
	cl.Get(1, 9)
	cl.Scan(2, 0, 4)
	cl.Route(3, 20)

	body := srv.Collector().Render()
	for _, want := range []string{
		`dsg_requests_total{verb="get"} 1`,
		`dsg_requests_total{verb="put"} 1`,
		`dsg_requests_total{verb="scan"} 1`,
		`dsg_requests_total{verb="route"} 1`,
		`dsg_requests_total{verb="stats"} 0`,
		"dsg_req_per_sec",
		"dsg_route_distance_mean",
		"dsg_rebalances_total 0",
		"dsg_migrated_keys_total 0",
		`dsg_kv_ops_total{op="get"} 1`,
		`dsg_kv_hits_total{op="get"} 1`,
		"dsg_kv_scanned_entries_total 1",
		"dsg_connections 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// The topology gauges follow the traffic: no admin verb has run.
	for _, gauge := range []string{"dsg_height", "dsg_dummy_nodes"} {
		if !strings.Contains(body, gauge+" ") || strings.Contains(body, gauge+" 0\n") {
			t.Errorf("%s did not move with the traffic:\n%s", gauge, body)
		}
	}
}

// gaugeValue reads one unlabelled gauge off a /metrics body.
func gaugeValue(t *testing.T, body, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return n
		}
	}
	t.Fatalf("no %s on /metrics", name)
	return 0
}

// TestShardedGaugesFollowTheTraffic: on four shards, where each op's
// adjustment finishes behind its answer, the topology gauges still move
// between two scrapes with nothing but ops on the wire — no admin frame
// settles the shards for them.
func TestShardedGaugesFollowTheTraffic(t *testing.T) {
	const n = 256
	nw, err := lsasg.NewSharded(n, lsasg.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	srv, cl := startServer(t, nw)

	rng := rand.New(rand.NewSource(5))
	serve := func(ops int) {
		for i := 0; i < ops; i++ {
			src, dst := rng.Intn(n), rng.Intn(n)
			var err error
			switch {
			case i%3 == 0:
				_, _, err = cl.Put(src, dst, []byte("v"))
			case src != dst:
				_, err = cl.Route(src, dst)
			}
			if err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
	serve(4)
	before := srv.Collector().Render()
	serve(600)
	after := srv.Collector().Render()
	for _, gauge := range []string{"dsg_height", "dsg_dummy_nodes"} {
		if b, a := gaugeValue(t, before, gauge), gaugeValue(t, after, gauge); b == a {
			t.Errorf("%s read %d at both scrapes, 600 ops apart", gauge, a)
		}
	}
	if got := gaugeValue(t, after, `dsg_requests_total{verb="stats"}`); got != 0 {
		t.Fatalf("%d stats frames were served", got)
	}
}

// pipeline writes reqs down a raw connection in one stream, numbering them
// from 1, and gives up quietly when the connection is closed.
func pipeline(nc net.Conn, reqs []Request) {
	bw := bufio.NewWriter(nc)
	for i, req := range reqs {
		req.Seq = uint64(i + 1)
		if WriteFrame(bw, req.Encode()) != nil {
			return
		}
	}
	bw.Flush()
}

// TestStalledReaderCostsOnlyItself: a connection that pipelines scans and
// never reads the answers fills its socket, so the server blocks writing to
// it. It blocks without holding the service, so another connection's route
// is answered at once.
func TestStalledReaderCostsOnlyItself(t *testing.T) {
	const n, scans = 64, 20000
	nw, err := lsasg.New(n, lsasg.WithSeed(23))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < n; k++ {
		if _, _, err := nw.Put((k+1)%n, k, make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	_, addr := listen(t, nw)
	other := dial(t, addr)

	// The stalled connection stays referenced until the test ends: an
	// unreachable one would be closed by its finaliser, and the reset would
	// free the server for the wrong reason.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := nc.(*net.TCPConn).SetReadBuffer(4 << 10); err != nil {
		t.Fatal(err)
	}
	reqs := make([]Request, scans)
	for i := range reqs {
		reqs[i] = Request{Verb: VerbScan, Src: 0, Dst: int64(i % n), Limit: 16}
	}
	go pipeline(nc, reqs)
	// Long enough for the answers to fill both socket buffers, so the
	// server is blocked writing to the stalled connection when the route
	// arrives; the route must be fast however long that takes.
	time.Sleep(time.Second)

	start := time.Now()
	if _, err := other.Route(1, 2); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("a route behind a connection that stopped reading took %v, want < 100ms", d)
	}
}

// pacedService spends a fixed service time on every op before serving it.
// It idles rather than spins, so a flood of ops keeps no CPU busy: a server
// reader serving a CPU-bound flood in the same process as its clients makes
// the host's wake-up latency, milliseconds on a busy 2-vCPU guest, the thing
// measured instead of the queue in front of the service. It counts the
// routes it begins, and notes that count when a Get begins.
type pacedService struct {
	lsasg.Service
	pace          time.Duration
	routes, atGet atomic.Int64
}

func (p *pacedService) Do(op lsasg.Op) (lsasg.OpResult, error) {
	if op.Kind == lsasg.GetKind {
		p.atGet.Store(p.routes.Load())
	} else {
		p.routes.Add(1)
	}
	time.Sleep(p.pace)
	return p.Service.Do(op)
}

// TestFloodDoesNotStarve: a connection pipelining routes as fast as the
// server answers them does not push another connection's closed-loop Gets
// to the back of a queue. The service lock is FIFO, so a Get waits for at
// most the one route the flood is being served when the Get's frame takes
// its place in the queue; a flood route begins while the Get is outstanding
// only if it took the lock in the moment before the frame got there. The
// verdict counts those routes, not the Get's wall-clock time: a host stall
// that halts both connections stretches a Get without letting a route in.
// Most Gets see no route begin, and none sees more than maxBehind.
func TestFloodDoesNotStarve(t *testing.T) {
	const n, flood, probes, maxBehind = 64, 5000, 200, 2
	nw, err := lsasg.New(n, lsasg.WithSeed(29))
	if err != nil {
		t.Fatal(err)
	}
	svc := &pacedService{Service: nw, pace: 3 * time.Millisecond}
	_, addr := listen(t, svc)
	cl := dial(t, addr)
	rng := rand.New(rand.NewSource(29))
	route := func() Request {
		src := rng.Intn(n)
		return Request{Verb: VerbRoute, Src: int64(src), Dst: int64((src + 1 + rng.Intn(n-1)) % n)}
	}

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	reqs := make([]Request, flood)
	for i := range reqs {
		reqs[i] = route()
	}
	go pipeline(nc, reqs)
	// The flood reads its answers; the probes start once the first is in.
	first := make(chan struct{})
	go func() {
		br := bufio.NewReader(nc)
		for i := 0; i < flood; i++ {
			if _, err := ReadFrame(br); err != nil {
				return
			}
			if i == 0 {
				close(first)
			}
		}
	}()
	<-first
	behind := make([]int, maxBehind+2)
	for i := 0; i < probes; i++ {
		before := svc.routes.Load()
		if _, err := cl.Do(Request{Verb: VerbGet, Src: int64(rng.Intn(n)), Dst: int64(rng.Intn(n))}); err != nil {
			t.Fatal(err)
		}
		behind[min(int(svc.atGet.Load()-before), maxBehind+1)]++
	}
	t.Logf("Gets by flood routes begun while outstanding (0, 1, ..., > %d): %v", maxBehind, behind)
	if behind[maxBehind+1] > 0 || behind[0] < probes/2 {
		t.Fatalf("beside a flood, %d of %d Gets saw no route begin while outstanding and %d saw more than %d",
			behind[0], probes, behind[maxBehind+1], maxBehind)
	}
}

// TestDeadIntermediateIsRepairedAndServed: a route that meets a crashed
// intermediate node is served. The daemon repairs the corpse at contact and
// routes again, so it answers OK with the distance the in-process twin
// measures, counts one request and that op's ρ, and serves an identical
// second route as well.
func TestDeadIntermediateIsRepairedAndServed(t *testing.T) {
	const n, seed, src, dst = 64, 31, 0, 63
	// In-process twins find a crash on the route: the one the route
	// contacts is repaired away — unknown afterwards, no longer dead.
	corpse, dist, rho := -1, 0, int64(0)
	for x := src + 1; x < dst && corpse < 0; x++ {
		twin, err := lsasg.New(n, lsasg.WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		if err := twin.Crash(x); err != nil {
			t.Fatal(err)
		}
		before := twin.Stats()
		r, err := twin.Do(lsasg.RouteOp(src, dst))
		if err != nil {
			t.Fatalf("in-process route %d→%d with %d crashed: %v", src, dst, x, err)
		}
		if _, err := twin.Distance(src, x); errors.Is(err, lsasg.ErrUnknownKey) {
			corpse, dist, rho = x, r.RouteDistance, twin.Stats().TotalTransformRounds-before.TotalTransformRounds
		}
	}
	if corpse < 0 {
		t.Fatalf("no crashed intermediate is on the route %d→%d", src, dst)
	}

	nw, err := lsasg.New(n, lsasg.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	_, cl := startServer(t, nw)
	if err := cl.Crash(corpse); err != nil {
		t.Fatal(err)
	}
	before, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := cl.Route(src, dst)
	if err != nil || resp.Code != CodeOK || resp.Distance != int64(dist) {
		t.Fatalf("route %d→%d across crashed %d = %+v, %v; want OK at the twin's distance %d", src, dst, corpse, resp, err, dist)
	}
	after, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if d := after.Cum.Requests - before.Cum.Requests; d != 1 {
		t.Errorf("one route call counted %d requests, want 1", d)
	}
	if d := after.Cum.TotalTransformRounds - before.Cum.TotalTransformRounds; d != rho {
		t.Errorf("one route call cost %d transform rounds, want the op's ρ = %d", d, rho)
	}
	if _, err := cl.Route(src, dst); err != nil {
		t.Errorf("the second route %d→%d: %v", src, dst, err)
	}
}
