package serve

import (
	"context"
	"errors"
	"testing"

	"lsasg/internal/core"
	"lsasg/internal/skipgraph"
)

// This file is the error-path layer for the serving engine: adjustment-miss
// tolerance, early cancellation, and the crash detect/repair cycle. The
// happy paths live in serve_test.go.

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
// crash on the idle engine, detect it at route time in the published
// snapshot, let a Put of the key splice the corpse out and rejoin it, and
// observe routing recover.
func TestCrashIdleDetectRepair(t *testing.T) {
	d := core.New(32, core.Config{A: 4, Seed: 17})
	e := New(d, Config{BatchSize: 4})
	if err := e.ApplyCrashIdle(99); !errors.Is(err, core.ErrUnknownNode) {
		t.Fatalf("crash of unknown id = %v, want ErrUnknownNode", err)
	}
	epoch := e.Snapshot().Epoch
	if err := e.ApplyCrashIdle(12); err != nil {
		t.Fatal(err)
	}
	if got := e.Snapshot().Epoch; got != epoch+1 {
		t.Errorf("crash published epoch %d, want %d", got, epoch+1)
	}
	_, err := e.Snapshot().Route(3, 12)
	var dre *skipgraph.DeadRouteError
	if !errors.As(err, &dre) || dre.Node.ID() != 12 {
		t.Fatalf("probe of corpse: %v, want DeadRouteError on 12", err)
	}
	if _, err := e.Serve(context.Background(), feedOps([]core.Op{core.RouteOp(3, 12)})); !errors.Is(err, skipgraph.ErrDeadNode) {
		t.Fatalf("served route into corpse: %v, want ErrDeadNode", err)
	}
	res, err := e.ApplyOpIdle(core.Op{Kind: core.OpPut, Src: 3, Dst: 12, Value: []byte("back")})
	if err != nil || res.Existed {
		t.Fatalf("repairing put = %+v, %v; want a fresh join", res, err)
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
