package serve

import (
	"context"
	"errors"
	"testing"

	"lsasg/internal/core"
	"lsasg/internal/skipgraph"
)

// This file is the error-path layer for the serving engine: the per-op miss,
// early cancellation, and the crash detect/repair cycle. The happy paths
// live in serve_test.go.

// TestTolerateAdjustMiss drives every miss class through the engine: a route
// whose endpoint is unknown or crashed is a recorded RouteMiss with no
// adjustment, never a failed run, while a migration leave of an unknown id
// stays an error.
func TestTolerateAdjustMiss(t *testing.T) {
	cases := []struct {
		name string
		op   core.Op
		prep func(d *core.DSG)
		want error
	}{
		{name: "unknown adjust tolerated", op: core.RouteOp(1, 99), want: skipgraph.ErrUnknownKey},
		{name: "crashed endpoint adjust tolerated", op: core.RouteOp(1, 9),
			prep: func(d *core.DSG) { d.Crash(9) }, want: skipgraph.ErrDeadNode},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := core.New(16, core.Config{A: 4, Seed: 7})
			if tc.prep != nil {
				tc.prep(d)
			}
			var got []Result
			e := New(d, Config{OnResult: func(r Result) { got = append(got, r) }})
			if _, err := e.Serve(context.Background(), feedOps([]core.Op{tc.op})); err != nil {
				t.Fatalf("Serve error = %v, want a per-op miss", err)
			}
			if len(got) != 1 || !got[0].RouteMiss || got[0].TransformRounds != 0 || !errors.Is(got[0].RouteErr, tc.want) {
				t.Errorf("miss recorded as %+v, want one RouteMiss (%v) with no adjustment", got, tc.want)
			}
		})
	}
	t.Run("unknown leave stays fatal", func(t *testing.T) {
		e := New(core.New(16, core.Config{A: 4, Seed: 7}), Config{})
		if err := e.ApplyMigrationBatch(nil, []int64{99}); err == nil {
			t.Error("leave of unknown id must report an error")
		}
	})
}

// TestFailedRoutePhaseAppliesNothing: a route whose route phase finds an
// endpoint unknown or dead is served as a miss that applies nothing of its
// own — the adjuster's clock does not move — while the routes around it are
// served and adjusted as usual.
func TestFailedRoutePhaseAppliesNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		bad  core.Op
		prep func(d *core.DSG)
	}{
		{name: "unknown endpoint", bad: core.RouteOp(3, 99)},
		{name: "dead endpoint", bad: core.RouteOp(3, 9), prep: func(d *core.DSG) { d.Crash(9) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := core.New(16, core.Config{A: 4, Seed: 7})
			if tc.prep != nil {
				tc.prep(d)
			}
			var log []Result
			e := New(d, Config{OnResult: func(r Result) { log = append(log, r) }})
			clock := d.Clock()
			st, err := e.Serve(context.Background(), feedOps([]core.Op{core.RouteOp(1, 8), tc.bad, core.RouteOp(4, 12)}))
			if err != nil {
				t.Fatalf("a route to a gone endpoint must not fail the run: %v", err)
			}
			if st.Requests != 3 || st.RouteMisses != 1 || len(log) != 3 {
				t.Fatalf("served %d requests with %d misses (%d results), want 3, 1, 3", st.Requests, st.RouteMisses, len(log))
			}
			if miss := log[1]; !miss.RouteMiss || miss.RouteDistance != 0 || miss.TransformRounds != 0 || miss.HeightAfter != 0 {
				t.Errorf("the miss measured or adjusted something: %+v", miss)
			}
			if d.Clock() != clock+2 {
				t.Errorf("adjuster clock moved %d→%d over two routes and a miss, want +2", clock, d.Clock())
			}
			if log[0].DirectLevel < 1 || log[2].DirectLevel < 1 {
				t.Errorf("the routes around the miss were not adjusted: %+v / %+v", log[0], log[2])
			}
			if err := d.Validate(); err != nil {
				t.Fatalf("live DSG invalid after the miss: %v", err)
			}
		})
	}
}

// TestServeEarlyCancel: a context cancelled before Serve starts returns
// ctx.Err() having served nothing, and the engine stays reusable.
func TestServeEarlyCancel(t *testing.T) {
	d := core.New(16, core.Config{A: 4, Seed: 13})
	e := New(d, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ch := make(chan core.Op, 1)
	ch <- core.RouteOp(1, 2)
	close(ch)
	st, err := e.Serve(ctx, ch)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st.Requests != 0 {
		t.Errorf("served %d requests under a dead context, want 0", st.Requests)
	}
	// The engine was released: a fresh healthy run must work.
	ch2 := make(chan core.Op, 1)
	ch2 <- core.RouteOp(1, 2)
	close(ch2)
	if _, err := e.Serve(context.Background(), ch2); err != nil {
		t.Fatalf("reuse after early cancel: %v", err)
	}
}

// TestCrashIdleDetectRepair is the failure cycle end to end: inject a
// crash on the idle engine, detect it at route time, let a Put of the key
// splice the corpse out and rejoin it, and observe routing recover.
func TestCrashIdleDetectRepair(t *testing.T) {
	d := core.New(32, core.Config{A: 4, Seed: 17})
	var last Result
	e := New(d, Config{OnResult: func(r Result) { last = r }})
	if err := e.ApplyCrashIdle(99); !errors.Is(err, core.ErrUnknownNode) {
		t.Fatalf("crash of unknown id = %v, want ErrUnknownNode", err)
	}
	if err := e.ApplyCrashIdle(12); err != nil {
		t.Fatal(err)
	}
	_, err := routeLive(d, 3, 12)
	var dre *skipgraph.DeadRouteError
	if !errors.As(err, &dre) || dre.Node.ID() != 12 {
		t.Fatalf("probe of corpse: %v, want DeadRouteError on 12", err)
	}
	var st Stats
	if err := e.ServeSlice([]core.Op{core.RouteOp(3, 12)}, &st); err != nil || !errors.Is(last.RouteErr, skipgraph.ErrDeadNode) {
		t.Fatalf("served route into corpse: %v / %+v, want a miss carrying ErrDeadNode", err, last)
	}
	err = e.ServeSlice([]core.Op{{Kind: core.OpPut, Src: 3, Dst: 12, Value: []byte("back")}}, &st)
	if err != nil || last.Existed {
		t.Fatalf("repairing put = %+v, %v; want a fresh join", last, err)
	}
	if _, err := e.Serve(context.Background(), feedOps([]core.Op{core.RouteOp(3, 12), core.RouteOp(3, 25)})); err != nil {
		t.Fatalf("routes after repair: %v", err)
	}
	if ids := d.CrashedIDs(); len(ids) != 0 {
		t.Errorf("crashed ids after repair = %v, want none", ids)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("live DSG invalid after crash cycle: %v", err)
	}
}
