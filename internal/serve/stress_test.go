package serve

import (
	"context"
	"math/rand"
	"testing"

	"lsasg/internal/core"
	"lsasg/internal/skipgraph"
)

// TestServeStress is the engine's churn stress: a long run of routes with
// Put-join / Delete-leave churn between them, every op routed on the graph
// the op before it left. The engine itself is single-goroutine; the race
// detector earns its keep one layer up, where TestShardedStress runs several
// engines side by side. CI runs both with -race -count=2 on every PR.
func TestServeStress(t *testing.T) {
	const (
		n     = 96
		total = 320
	)
	d := core.New(n, core.Config{A: 4, Seed: 42})
	e := New(d, Config{})

	// Routes stay inside the stable core 0..n-1; transient ids (≥ n) join
	// and leave between them, so the core stays routable throughout.
	rng := rand.New(rand.NewSource(100))
	ops := make([]core.Op, 0, total)
	for len(ops) < total {
		if len(ops)%40 == 39 {
			id := int64(n + len(ops)/40%8)
			ops = append(ops,
				core.Op{Kind: core.OpPut, Src: 1, Dst: id, Value: []byte("t")},
				core.Op{Kind: core.OpDelete, Src: 1, Dst: id})
			continue
		}
		u, v := int64(rng.Intn(n)), int64(rng.Intn(n))
		if u != v {
			ops = append(ops, core.RouteOp(u, v))
		}
	}

	st, err := e.Serve(context.Background(), feedOps(ops))
	if err != nil {
		t.Fatal(err)
	}

	if st.Requests != int64(len(ops)) || st.RouteMisses != st.PutInserts || st.PutInserts == 0 || st.DeleteHits != st.PutInserts {
		t.Fatalf("stress books: %+v", st)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("live DSG invalid after stress: %v", err)
	}

	// The final graph must route the whole stable core.
	rng = rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		u, v := int64(rng.Intn(n)), int64(rng.Intn(n))
		if u == v {
			continue
		}
		if _, err := routeLive(d, u, v); err != nil {
			t.Fatalf("final graph cannot route %d→%d: %v", u, v, err)
		}
	}
}

// routeLive routes src → dst on the engine's live graph, the way the step's
// route half does.
func routeLive(d *core.DSG, src, dst int64) (skipgraph.RouteResult, error) {
	return d.Graph().RouteKeys(skipgraph.KeyOf(src), skipgraph.KeyOf(dst))
}

// TestApplyMembershipBatchIdle: the idle-engine migration entry point
// applies a bare (value-less) membership batch as one epoch.
func TestApplyMembershipBatchIdle(t *testing.T) {
	d := core.New(16, core.Config{A: 4, Seed: 5})
	e := New(d, Config{})
	epoch0 := e.epoch
	if err := e.ApplyMigrationBatch([]skipgraph.Entry{{ID: 100}, {ID: 101}}, []int64{3}); err != nil {
		t.Fatal(err)
	}
	if e.epoch != epoch0+1 {
		t.Errorf("epoch advanced %d→%d, want one batch", epoch0, e.epoch)
	}
	if _, err := routeLive(d, 100, 101); err != nil {
		t.Errorf("joined keys not routable: %v", err)
	}
	if _, err := routeLive(d, 1, 3); err == nil {
		t.Error("left key 3 still routable")
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("live DSG invalid after batch: %v", err)
	}
}

// TestModeConflict: one owner of the live graph at a time — while a Serve
// call is in flight, an overlapping Serve and every idle entry point must
// error instead of racing it; once it returns, they work again.
func TestModeConflict(t *testing.T) {
	e := New(core.New(16, core.Config{A: 4, Seed: 1}), Config{})
	blocked := make(chan core.Op) // never closed during the first Serve
	ret := make(chan error, 1)
	go func() {
		_, err := e.Serve(context.Background(), blocked)
		ret <- err
	}()
	// Wait until the first Serve holds the engine.
	for !e.busy.Load() {
	}
	ch := make(chan core.Op)
	close(ch)
	if _, err := e.Serve(context.Background(), ch); err == nil {
		t.Error("overlapping Serve must fail")
	}
	var st Stats
	if err := e.ServeSlice([]core.Op{core.RouteOp(1, 2)}, &st); err == nil {
		t.Error("ServeSlice on a serving engine must fail")
	}
	if err := e.ApplyCrashIdle(4); err == nil {
		t.Error("ApplyCrashIdle on a serving engine must fail")
	}
	if err := e.ApplyMigrationBatch([]skipgraph.Entry{{ID: 50}}, nil); err == nil {
		t.Error("ApplyMigrationBatch on a serving engine must fail")
	}
	close(blocked)
	if err := <-ret; err != nil {
		t.Fatalf("first Serve failed: %v", err)
	}
	if err := e.ServeSlice([]core.Op{core.RouteOp(1, 2)}, &st); err != nil || st.Requests != 1 {
		t.Fatalf("slice entry point after Serve returned: %v (%d served)", err, st.Requests)
	}
}
