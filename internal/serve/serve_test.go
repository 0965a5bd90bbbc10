package serve

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"lsasg/internal/core"
	"lsasg/internal/workload"
)

// feed pushes the request list into a channel the engine consumes.
func feed(reqs []workload.Request) <-chan core.Op {
	ch := make(chan core.Op)
	go func() {
		defer close(ch)
		for _, r := range reqs {
			ch <- core.RouteOp(int64(r.Src), int64(r.Dst))
		}
	}()
	return ch
}

// runServe serves one fixed workload with the given parallelism and returns
// the aggregate stats plus the per-request result log (in sequence order).
func runServe(t *testing.T, p int, collect bool) (Stats, []Result) {
	t.Helper()
	const n = 64
	var log []Result
	cfg := Config{Parallelism: p, BatchSize: 16}
	if collect {
		cfg.OnResult = func(r Result) { log = append(log, r) }
	}
	e := New(core.New(n, core.Config{A: 4, Seed: 21}), cfg)
	reqs := workload.Zipf{Seed: 21, S: 1.2}.Generate(n, 480)
	st, err := e.Serve(context.Background(), feed(reqs))
	if err != nil {
		t.Fatalf("p=%d: %v", p, err)
	}
	return st, log
}

// TestServeDeterministicAcrossParallelism is the engine's core contract:
// same seed + same batch schedule ⇒ byte-identical aggregate stats (and
// identical per-request results) no matter how many routing workers run.
func TestServeDeterministicAcrossParallelism(t *testing.T) {
	base, baseLog := runServe(t, 1, true)
	baseJSON, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 8} {
		st, log := runServe(t, p, true)
		gotJSON, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		if string(gotJSON) != string(baseJSON) {
			t.Errorf("p=%d stats diverge from p=1:\n p=1: %s\n p=%d: %s", p, baseJSON, p, gotJSON)
		}
		if !reflect.DeepEqual(log, baseLog) {
			for i := range baseLog {
				if i < len(log) && !reflect.DeepEqual(log[i], baseLog[i]) {
					t.Fatalf("p=%d: first divergent request %d:\n p=1: %+v\n p=%d: %+v",
						p, i, baseLog[i], p, log[i])
				}
			}
			t.Errorf("p=%d: result logs differ in length: %d vs %d", p, len(log), len(baseLog))
		}
	}
}

// TestServeStatsShape sanity-checks the aggregate bookkeeping.
func TestServeStatsShape(t *testing.T) {
	st, log := runServe(t, 4, true)
	if st.Requests != 480 || int(st.Requests) != len(log) {
		t.Fatalf("served %d requests, logged %d, want 480", st.Requests, len(log))
	}
	if st.Batches != 30 {
		t.Errorf("480 requests at k=16: %d batches, want 30", st.Batches)
	}
	// Full batches of 16: lag runs 1..16, mean 8.5.
	if got := st.MeanAdjustLag(); got != 8.5 {
		t.Errorf("mean adjust lag %v, want 8.5", got)
	}
	if st.MaxAdjustLag != 16 {
		t.Errorf("max adjust lag %d, want 16", st.MaxAdjustLag)
	}
	if st.MeanRouteDistance() <= 0 {
		t.Errorf("mean route distance %v, want > 0", st.MeanRouteDistance())
	}
	if st.HeightAfter <= 0 {
		t.Errorf("height after %d", st.HeightAfter)
	}
	for i, r := range log {
		if r.Seq != int64(i) {
			t.Fatalf("result %d carries seq %d", i, r.Seq)
		}
		if want := int64(i / 16); r.Epoch != want {
			t.Fatalf("request %d routed against epoch %d, want %d", i, r.Epoch, want)
		}
		if r.DirectLevel < 1 {
			t.Fatalf("request %d not directly linked after adjustment: level %d", i, r.DirectLevel)
		}
	}
}

// TestServeAdaptsTopology: repeated pairs must become cheap once their
// batch's adjust phase has run — the self-adjusting property survives
// batching.
func TestServeAdaptsTopology(t *testing.T) {
	const n = 64
	d := core.New(n, core.Config{A: 4, Seed: 3})
	var log []Result
	e := New(d, Config{Parallelism: 4, BatchSize: 8, OnResult: func(r Result) { log = append(log, r) }})
	reqs := make([]workload.Request, 120)
	for i := range reqs {
		reqs[i] = workload.Request{Src: 5, Dst: 50}
	}
	if _, err := e.Serve(context.Background(), feed(reqs)); err != nil {
		t.Fatal(err)
	}
	// From the second batch on, the pair routes in an adapted graph.
	for i := 8; i < len(log); i++ {
		if log[i].RouteDistance != 0 {
			t.Fatalf("request %d still routes at distance %d after adaptation", i, log[i].RouteDistance)
		}
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("live DSG invalid after serve: %v", err)
	}
}

// TestServeContextCancel: cancelling mid-stream returns ctx.Err() with the
// stats accumulated so far, and the live DSG stays valid.
func TestServeContextCancel(t *testing.T) {
	const n = 32
	d := core.New(n, core.Config{A: 4, Seed: 9})
	e := New(d, Config{Parallelism: 2, BatchSize: 8})
	ctx, cancel := context.WithCancel(context.Background())
	ch := make(chan core.Op)
	go func() {
		defer close(ch)
		reqs := workload.Uniform{Seed: 9}.Generate(n, 1000)
		for i, r := range reqs {
			// The documented producer pattern: select on the same ctx so the
			// feeder unblocks once Serve stops receiving.
			select {
			case ch <- core.RouteOp(int64(r.Src), int64(r.Dst)):
			case <-ctx.Done():
				return
			}
			if i == 100 {
				cancel()
			}
		}
	}()
	st, err := e.Serve(ctx, ch)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st.Requests == 0 {
		t.Error("no requests served before cancellation")
	}
	if verr := d.Validate(); verr != nil {
		t.Fatalf("live DSG invalid after cancel: %v", verr)
	}
}

// TestServeBadPairAborts: an unknown node id aborts the run with an error.
func TestServeBadPairAborts(t *testing.T) {
	e := New(core.New(16, core.Config{A: 4, Seed: 1}), Config{BatchSize: 4})
	ch := make(chan core.Op, 2)
	ch <- core.RouteOp(1, 2)
	ch <- core.RouteOp(3, 99)
	close(ch)
	if _, err := e.Serve(context.Background(), ch); err == nil {
		t.Fatal("expected error for unknown node id")
	}
}
