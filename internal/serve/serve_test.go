package serve

import (
	"context"
	"testing"

	"lsasg/internal/core"
	"lsasg/internal/obs"
	"lsasg/internal/workload"
)

// TestServeStatsShape checks the adapter's surface as the frozen harness
// reads it: every request served reaches OnResult adjusted, Batches counts
// them and MeanAdjustLag is 1, and the tracer sees both stages of the step.
func TestServeStatsShape(t *testing.T) {
	const n = 64
	var log []Result
	tr := obs.NewTracer()
	e := New(core.New(n, core.Config{A: 4, Seed: 21}), Config{BatchSize: 1, Tracer: tr, OnResult: func(r Result) { log = append(log, r) }})
	reqs := workload.Zipf{Seed: 21, S: 1.2}.Generate(n, 480)
	in := make(chan core.Op)
	go func() {
		defer close(in)
		for _, r := range reqs {
			in <- core.RouteOp(int64(r.Src), int64(r.Dst))
		}
	}()
	st, err := e.Serve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if st.Batches != 480 || len(log) != 480 {
		t.Fatalf("served %d batches, logged %d, want 480", st.Batches, len(log))
	}
	if st.MeanAdjustLag() != 1 || (Stats{}).MeanAdjustLag() != 0 {
		t.Errorf("mean adjust lag %v, want 1", st.MeanAdjustLag())
	}
	for i, r := range log {
		if r.Op.Src != int64(reqs[i].Src) || r.Op.Dst != int64(reqs[i].Dst) {
			t.Fatalf("result %d is for %d→%d, want the request's %d→%d", i, r.Op.Src, r.Op.Dst, reqs[i].Src, reqs[i].Dst)
		}
		if r.DirectLevel < 1 {
			t.Fatalf("request %d not directly linked after adjustment: level %d", i, r.DirectLevel)
		}
	}
	for _, stage := range []int{obs.StageRouteLeg, obs.StageAdjustApply} {
		if c := tr.StageHistogram(stage).Count(); c != 480 {
			t.Errorf("stage %d observed %d times, want 480", stage, c)
		}
	}
}

// TestModeConflict: one owner of the live graph at a time — while a Serve
// call is in flight, an overlapping Serve must error instead of racing it;
// once the first returns, Serve works again.
func TestModeConflict(t *testing.T) {
	var served []Result
	e := New(core.New(16, core.Config{A: 4, Seed: 1}), Config{OnResult: func(r Result) { served = append(served, r) }})
	blocked := make(chan core.Op) // unbuffered: a send lands only inside Serve
	ret := make(chan error, 1)
	go func() {
		_, err := e.Serve(context.Background(), blocked)
		ret <- err
	}()
	// The first Serve holds the engine once it has taken an op.
	blocked <- core.RouteOp(1, 2)
	closed := make(chan core.Op)
	close(closed)
	if _, err := e.Serve(context.Background(), closed); err == nil {
		t.Error("overlapping Serve must fail")
	}
	close(blocked)
	if err := <-ret; err != nil {
		t.Fatalf("first Serve failed: %v", err)
	}
	again := make(chan core.Op, 1)
	again <- core.RouteOp(3, 4)
	close(again)
	st, err := e.Serve(context.Background(), again)
	if err != nil || st.Batches != 1 {
		t.Fatalf("Serve after the first returned: %v (%d served)", err, st.Batches)
	}
	if len(served) != 2 || served[0].Op.Src != 1 || served[1].Op.Src != 3 {
		t.Fatalf("served %v, want 1→2 then 3→4", served)
	}
}
