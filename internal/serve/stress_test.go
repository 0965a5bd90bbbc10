package serve

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"lsasg/internal/core"
	"lsasg/internal/skipgraph"
)

// TestServeStress is the race-detector stress for the snapshot path: the
// pipeline's routing workers — plus outside readers holding whatever
// snapshot is current — read published replicas while the adjuster mutates
// the live graph, absorbs Put-join / Delete-leave churn, and publishes new
// epochs. CI runs this with -race -count=2 on every PR.
func TestServeStress(t *testing.T) {
	const (
		n       = 96
		readers = 2
		total   = 320
	)
	d := core.New(n, core.Config{A: 4, Seed: 42})
	e := New(d, Config{Parallelism: 8, BatchSize: 16})

	// Routes stay inside the stable core 0..n-1; transient ids (≥ n) join
	// and leave through the same adjuster, so the core stays routable in
	// every snapshot.
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

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				u, v := int64(rng.Intn(n)), int64(rng.Intn(n))
				if u == v {
					continue
				}
				if _, err := e.Snapshot().Route(u, v); err != nil {
					t.Errorf("reader %d: route %d→%d: %v", w, u, v, err)
					return
				}
				runtime.Gosched() // readers must not starve the adjuster on small CI runners
			}
		}(w)
	}
	st, err := e.Serve(context.Background(), feedOps(ops))
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	if st.Requests != int64(len(ops)) || st.Batches == 0 || st.PutInserts == 0 || st.DeleteHits != st.PutInserts {
		t.Fatalf("stress books: %+v", st)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("live DSG invalid after stress: %v", err)
	}

	// The final snapshot must route the whole stable core.
	snap := e.Snapshot()
	rng = rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		u, v := int64(rng.Intn(n)), int64(rng.Intn(n))
		if u == v {
			continue
		}
		if _, err := snap.Route(u, v); err != nil {
			t.Fatalf("final snapshot cannot route %d→%d: %v", u, v, err)
		}
	}
}

// TestApplyMembershipBatchIdle: the idle-engine migration entry point
// applies a bare (value-less) membership batch and publishes exactly one
// snapshot.
func TestApplyMembershipBatchIdle(t *testing.T) {
	d := core.New(16, core.Config{A: 4, Seed: 5})
	e := New(d, Config{})
	epoch0 := e.Snapshot().Epoch
	if err := e.ApplyMigrationBatch([]skipgraph.Entry{{ID: 100}, {ID: 101}}, []int64{3}); err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	if snap.Epoch != epoch0+1 {
		t.Errorf("epoch advanced %d→%d, want one publication", epoch0, snap.Epoch)
	}
	if _, err := snap.Route(100, 101); err != nil {
		t.Errorf("joined keys not routable in the new snapshot: %v", err)
	}
	if _, err := snap.Route(1, 3); err == nil {
		t.Error("left key 3 still routable in the new snapshot")
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("live DSG invalid after batch: %v", err)
	}
}

// TestModeConflict: one owner of the live graph at a time — while a Serve
// call is in flight, an overlapping Serve and every idle entry point must
// error instead of racing the adjuster; once it returns, they work again.
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
	if _, err := e.ApplyOpIdle(core.RouteOp(1, 2)); err == nil {
		t.Error("ApplyOpIdle on a serving engine must fail")
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
	if _, err := e.ApplyOpIdle(core.RouteOp(1, 2)); err != nil {
		t.Fatalf("idle entry point after Serve returned: %v", err)
	}
}
