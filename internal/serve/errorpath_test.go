package serve

import (
	"context"
	"errors"
	"testing"

	"lsasg/internal/core"
	"lsasg/internal/skipgraph"
)

// This file is the error-path layer for the serving engine: adjustment-miss
// tolerance, the failed route phase, early cancellation, and the crash
// detect/repair cycle. The happy paths live in serve_test.go.

// TestTolerateAdjustMiss drives every miss class through the pipeline and
// checks which ones abort the run: a route whose endpoint is unknown or
// crashed is fatal on a strict engine and a recorded RouteMiss (zero
// adjustment) on a tolerant one, while a migration leave of an unknown id
// stays an error whatever the tolerance.
func TestTolerateAdjustMiss(t *testing.T) {
	cases := []struct {
		name     string
		tolerate bool
		op       core.Op
		prep     func(d *core.DSG)
		fatal    bool
	}{
		{name: "unknown adjust intolerant", tolerate: false, op: core.RouteOp(1, 99), fatal: true},
		{name: "unknown adjust tolerated", tolerate: true, op: core.RouteOp(1, 99), fatal: false},
		{name: "crashed endpoint adjust tolerated", tolerate: true, op: core.RouteOp(1, 9),
			prep: func(d *core.DSG) { d.Crash(9) }, fatal: false},
		{name: "crashed endpoint adjust intolerant", tolerate: false, op: core.RouteOp(1, 9),
			prep: func(d *core.DSG) { d.Crash(9) }, fatal: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := core.New(16, core.Config{A: 4, Seed: 7})
			if tc.prep != nil {
				tc.prep(d)
			}
			var got []Result
			e := New(d, Config{TolerateAdjustMiss: tc.tolerate,
				OnResult: func(r Result) { got = append(got, r) }})
			_, err := e.Serve(context.Background(), feedOps([]core.Op{tc.op}))
			if (err != nil) != tc.fatal {
				t.Fatalf("Serve error = %v, want fatal=%v", err, tc.fatal)
			}
			if !tc.fatal && (len(got) != 1 || !got[0].RouteMiss || got[0].TransformRounds != 0) {
				t.Errorf("tolerated miss recorded as %+v, want one RouteMiss with no adjustment", got)
			}
		})
	}
	t.Run("unknown leave stays fatal", func(t *testing.T) {
		e := New(core.New(16, core.Config{A: 4, Seed: 7}), Config{TolerateAdjustMiss: true})
		if err := e.ApplyMigrationBatch(nil, []int64{99}); err == nil {
			t.Error("leave of unknown id must report an error")
		}
	})
}

// TestFailedRoutePhaseAppliesNothing: on a strict engine a batch whose route
// phase fails — unknown or dead endpoint — aborts before its adjust phase,
// so not even the valid ops ahead of the bad one are applied.
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
			served := 0
			e := New(d, Config{BatchSize: 4, OnResult: func(Result) { served++ }})
			if _, err := e.Serve(context.Background(), feedOps([]core.Op{core.RouteOp(1, 2), core.RouteOp(5, 6)})); err != nil {
				t.Fatal(err)
			}
			clock, epoch := d.Clock(), e.epoch
			st, err := e.Serve(context.Background(), feedOps([]core.Op{core.RouteOp(1, 8), core.RouteOp(4, 12), tc.bad}))
			if err == nil {
				t.Fatal("batch with an unroutable op must abort")
			}
			if st.Requests != 0 || served != 2 {
				t.Errorf("failed batch reported %d requests (%d results overall), want 0 (2)", st.Requests, served)
			}
			if d.Clock() != clock || e.epoch != epoch {
				t.Errorf("failed batch moved the clock %d→%d / epoch %d→%d; its valid prefix must not be applied",
					clock, d.Clock(), epoch, e.epoch)
			}
			if err := d.Validate(); err != nil {
				t.Fatalf("live DSG invalid after the failed batch: %v", err)
			}
		})
	}
}

// TestServeEarlyCancel: a context cancelled before Serve starts returns
// ctx.Err() having served nothing, and the engine stays reusable.
func TestServeEarlyCancel(t *testing.T) {
	d := core.New(16, core.Config{A: 4, Seed: 13})
	e := New(d, Config{BatchSize: 4})
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
	e := New(d, Config{BatchSize: 4, OnResult: func(r Result) { last = r }})
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
	if _, err := e.Serve(context.Background(), feedOps([]core.Op{core.RouteOp(3, 12)})); !errors.Is(err, skipgraph.ErrDeadNode) {
		t.Fatalf("served route into corpse: %v, want ErrDeadNode", err)
	}
	var st Stats
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
