package serve

import (
	"context"
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

// TestServeStatsShape sanity-checks the aggregate bookkeeping.
func TestServeStatsShape(t *testing.T) {
	const n = 64
	var log []Result
	e := New(core.New(n, core.Config{A: 4, Seed: 21}), Config{OnResult: func(r Result) { log = append(log, r) }})
	st, err := e.Serve(context.Background(), feed(workload.Zipf{Seed: 21, S: 1.2}.Generate(n, 480)))
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 480 || int(st.Requests) != len(log) {
		t.Fatalf("served %d requests, logged %d, want 480", st.Requests, len(log))
	}
	// The two names the frozen benchmark harness still reads.
	if st.Batches != st.Requests || st.MeanAdjustLag() != 1 || (Stats{}).MeanAdjustLag() != 0 {
		t.Errorf("batches %d, mean adjust lag %v; want one per request and 1", st.Batches, st.MeanAdjustLag())
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
		if r.Epoch != int64(i) {
			t.Fatalf("request %d routed against epoch %d, want every earlier request applied", i, r.Epoch)
		}
		if r.DirectLevel < 1 {
			t.Fatalf("request %d not directly linked after adjustment: level %d", i, r.DirectLevel)
		}
	}
}

// TestServeAdaptsTopology: a repeated pair is cheap from its second request
// on — each request routes in the graph the one before it adjusted.
func TestServeAdaptsTopology(t *testing.T) {
	const n = 64
	d := core.New(n, core.Config{A: 4, Seed: 3})
	var log []Result
	e := New(d, Config{OnResult: func(r Result) { log = append(log, r) }})
	reqs := make([]workload.Request, 120)
	for i := range reqs {
		reqs[i] = workload.Request{Src: 5, Dst: 50}
	}
	if _, err := e.Serve(context.Background(), feed(reqs)); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(log); i++ {
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
	e := New(d, Config{})
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

// TestServeBadPairAborts: a pair the adjuster rejects — a self-route —
// aborts the run with an error; the requests before it stay served.
func TestServeBadPairAborts(t *testing.T) {
	e := New(core.New(16, core.Config{A: 4, Seed: 1}), Config{})
	ch := make(chan core.Op, 2)
	ch <- core.RouteOp(1, 2)
	ch <- core.RouteOp(3, 3)
	close(ch)
	st, err := e.Serve(context.Background(), ch)
	if err == nil {
		t.Fatal("expected error for a self-route")
	}
	if st.Requests != 1 {
		t.Errorf("%d requests counted next to the error, want the one before it", st.Requests)
	}
}
