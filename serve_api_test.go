package lsasg

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"lsasg/internal/core"
	"lsasg/internal/shard"
	"lsasg/internal/workload"
)

// feedOps pushes an op list into a channel ServeOps consumes.
func feedOps(ops []Op) <-chan Op {
	ch := make(chan Op)
	go func() {
		defer close(ch)
		for _, op := range ops {
			ch <- op
		}
	}()
	return ch
}

func serveAll(t *testing.T, nw *Network, ops []Op) ServeStats {
	t.Helper()
	st, err := nw.ServeOps(context.Background(), feedOps(ops), nil)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func serveRoutes(n, m int, seed int64) []Op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]Op, 0, m)
	for len(ops) < m {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			ops = append(ops, RouteOp(u, v))
		}
	}
	return ops
}

// TestServePublicAPI streams routes through ServeOps and checks the run
// feeds the same bookkeeping as Request.
func TestServePublicAPI(t *testing.T) {
	nw, err := New(48, WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	pairs := serveRoutes(48, 160, 11)
	st := serveAll(t, nw, pairs)

	if st.Requests != 160 {
		t.Fatalf("served %d requests, want 160", st.Requests)
	}
	if nw.Requests() != 160 {
		t.Errorf("Network.Requests() = %d after Serve, want 160", nw.Requests())
	}
	agg := nw.Stats()
	if agg.Requests != 160 || agg.WorkingSetBound <= 0 {
		t.Errorf("Stats() not fed by Serve: %+v", agg)
	}
	if err := nw.Verify(); err != nil {
		t.Fatalf("invalid after Serve: %v", err)
	}
	// The served pairs are now adapted: a repeat of the last pair is free.
	last := pairs[len(pairs)-1]
	if d, err := nw.Distance(last.Src, last.Dst); err != nil || d != 0 {
		t.Errorf("last served pair routes at distance %d (err %v), want 0", d, err)
	}
}

// TestServeDeterministicPublic: the determinism contract at the API level —
// two runs of one seed and one stream produce identical ServeStats.
func TestServeDeterministicPublic(t *testing.T) {
	run := func() ServeStats {
		nw, err := New(32, WithSeed(4))
		if err != nil {
			t.Fatal(err)
		}
		return serveAll(t, nw, serveRoutes(32, 320, 4))
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("ServeStats diverge across runs:\n %+v\n %+v", a, b)
	}
}

// TestServeValidation: an invalid envelope aborts the run with an error.
func TestServeValidation(t *testing.T) {
	nw, err := New(8, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Op{RouteOp(0, 0), RouteOp(-1, 2), RouteOp(3, 8)} {
		if _, err := nw.ServeOps(context.Background(), feedOps([]Op{bad}), nil); err == nil {
			t.Errorf("op %+v should fail", bad)
		}
	}
}

// renderResult flattens one outcome for comparison across two networks: an
// error is compared by its text, since its chain points into the graph that
// produced it.
func renderResult(r OpResult) string {
	err := r.Err
	r.Err = nil
	return fmt.Sprintf("%+v err=%v", r, err)
}

// TestServeOpsEqualsDoLoop is the one serving semantic: at every shard count
// and load window, a ServeOps run returns what a loop over Do returns — the
// same OpResults in the same order, the same Stats(), the same topology to
// the byte — on plain Zipf routes and on a CRUD mix with deletes, routes into
// a crashed and a removed node, and the migrations the skew provokes. What
// ServeOps adds is the shards serving side by side, so CI runs this under
// the race detector.
func TestServeOpsEqualsDoLoop(t *testing.T) {
	const n, m = 96, 800
	zipf := make([]Op, 0, m)
	for _, r := range (workload.Zipf{Seed: 5, S: 1.2}).Generate(n, m) {
		zipf = append(zipf, RouteOp(r.Src, r.Dst))
	}
	tr, err := workload.KVMix{Seed: 5, Mix: workload.MixCRUD, Base: workload.Zipf{Seed: 5, S: 1.2}}.Trace(n, m)
	if err != nil {
		t.Fatal(err)
	}
	const crashed, removed = 17, 60
	crud := make([]Op, 0, m+m/40)
	for i, e := range tr {
		src, dst := int(e.Src), int(e.Dst)
		switch e.Op {
		case workload.OpGet:
			crud = append(crud, GetOp(src, dst))
		case workload.OpPut:
			crud = append(crud, PutOp(src, dst, []byte{byte(i), byte(i >> 8)}))
		case workload.OpDelete:
			crud = append(crud, DeleteOp(src, dst))
		case workload.OpScan:
			crud = append(crud, ScanOp(src, dst, e.Limit))
		}
		if i%80 == 40 { // misses until the mix puts the key back, measured routes after
			crud = append(crud, RouteOp(1, crashed), RouteOp(removed, 2))
		}
	}

	for _, trace := range []struct {
		name  string
		ops   []Op
		churn bool
	}{{"zipf", zipf, false}, {"crud", crud, true}} {
		for _, shards := range []int{1, 2, 4} {
			for _, window := range []int{1, 7, 0} {
				t.Run(fmt.Sprintf("%s/s=%d/window=%d", trace.name, shards, window), func(t *testing.T) {
					build := func() *Network {
						opts := []Option{WithSeed(3), WithShards(shards), WithRebalanceWindow(window)}
						if trace.churn {
							opts = append(opts, WithoutWorkingSetTracking()) // RemoveNode needs it
						}
						nw, err := New(n, opts...)
						if err != nil {
							t.Fatal(err)
						}
						if trace.churn {
							if err := nw.Crash(crashed); err != nil {
								t.Fatal(err)
							}
							if err := nw.RemoveNode(removed); err != nil {
								t.Fatal(err)
							}
						}
						return nw
					}

					streamed, looped := build(), build()
					var got []string
					if _, err := streamed.ServeOps(context.Background(), feedOps(trace.ops),
						func(r OpResult) { got = append(got, renderResult(r)) }); err != nil {
						t.Fatal(err)
					}
					misses := 0
					for i, op := range trace.ops {
						r, err := looped.Do(op)
						if err != nil {
							if !errors.Is(err, ErrUnknownKey) && !errors.Is(err, ErrDeadNode) {
								t.Fatalf("Do(op %d %+v): %v", i, op, err)
							}
							misses++
						}
						if i >= len(got) {
							t.Fatalf("ServeOps delivered %d results for %d ops", len(got), len(trace.ops))
						}
						if want := renderResult(r); got[i] != want {
							t.Fatalf("op %d %+v:\n ServeOps %s\n Do       %s", i, op, got[i], want)
						}
					}
					if trace.churn && misses == 0 {
						t.Error("the trace routed into no crashed or removed node")
					}
					if a, b := streamed.Stats(), looped.Stats(); a != b {
						t.Errorf("Stats() differ:\n ServeOps %+v\n Do loop  %+v", a, b)
					}
					var a, b bytes.Buffer
					streamed.RenderTopology(&a)
					looped.RenderTopology(&b)
					if !bytes.Equal(a.Bytes(), b.Bytes()) {
						t.Error("rendered topologies differ")
					}
					if shards > 1 && window == 7 && streamed.Stats().Rebalances == 0 {
						t.Error("the skewed trace provoked no migration: the barrier went untested")
					}
					for _, nw := range []*Network{streamed, looped} {
						if err := nw.Verify(); err != nil {
							t.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// TestUnshardedMatchesEngine pins that the single graph is the S = 1 case of
// the sharded service and nothing more: an unsharded Network serving 3 000
// Zipf(1.2) routes reports exactly what one shard's step over
// core.New(n, {A: 4, Seed: 1}) reports (shard.NewOver) — total distance,
// longest route, ρ, dummies, height — and those are the numbers the daemon's
// route workloads have served since the transformation last changed a
// decision.
func TestUnshardedMatchesEngine(t *testing.T) {
	for _, tc := range []struct {
		n               int
		dist, max, rho  int64
		dummies, height int
	}{
		{n: 256, dist: 28896, max: 99, rho: 2344083, dummies: 238, height: 12},
		{n: 512, dist: 40899, max: 208, rho: 3477797, dummies: 814, height: 15},
	} {
		t.Run(fmt.Sprintf("n=%d", tc.n), func(t *testing.T) {
			t.Parallel()
			reqs := workload.Zipf{Seed: 17, S: 1.2}.Generate(tc.n, 3000)

			d := core.New(tc.n, core.Config{A: 4, Seed: 1})
			eng := shard.NewOver(d, shard.Config{})
			in := make(chan core.Op)
			go func() {
				defer close(in)
				for _, r := range reqs {
					in <- core.RouteOp(int64(r.Src), int64(r.Dst))
				}
			}()
			want, err := eng.Serve(context.Background(), in)
			if err != nil {
				t.Fatal(err)
			}

			nw, err := New(tc.n, WithSeed(1))
			if err != nil {
				t.Fatal(err)
			}
			pairs := make([]Op, len(reqs))
			for i, r := range reqs {
				pairs[i] = RouteOp(r.Src, r.Dst)
			}
			got := serveAll(t, nw, pairs)

			if got.Requests != want.Requests ||
				got.MeanRouteDistance != float64(want.TotalRouteDistance)/float64(want.Requests) ||
				int64(got.MaxRouteDistance) != want.MaxLegDistance ||
				got.TotalTransformRounds != want.TotalTransformRounds ||
				got.DummyCount != d.DummyCount() || got.Height != want.Height {
				t.Errorf("Network at S = 1 diverges from the step over core.New's graph:\n network %+v\n step    %+v (dummies %d)", got, want, d.DummyCount())
			}
			if want.TotalRouteDistance != tc.dist || want.MaxLegDistance != tc.max ||
				want.TotalTransformRounds != tc.rho || d.DummyCount() != tc.dummies || want.Height != tc.height {
				t.Errorf("step totals moved: distance %d max %d ρ %d dummies %d height %d, want %d / %d / %d / %d / %d",
					want.TotalRouteDistance, want.MaxLegDistance, want.TotalTransformRounds, d.DummyCount(), want.Height,
					tc.dist, tc.max, tc.rho, tc.dummies, tc.height)
			}
			if st := nw.Stats(); st.Requests != 3000 || st.TotalTransformRounds != tc.rho || int64(st.MaxRouteDistance) != tc.max {
				t.Errorf("Stats() after the run: %+v", st)
			}
		})
	}
}

// TestStatsSameThroughEitherPath: a synchronous Get/Put/Delete/Scan/Request
// is a one-op window of the driver ServeOps runs, so one op stream served
// once through ServeOps and once through the synchronous methods
// leaves the same Stats() — requests, distances, ρ, working-set bound,
// topology — behind.
func TestStatsSameThroughEitherPath(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(31))
	var ops []Op
	for i := 0; i < 300; i++ {
		src, key := rng.Intn(n), rng.Intn(n)
		switch i % 5 {
		case 0:
			ops = append(ops, PutOp(src, key, []byte{byte(i)}))
		case 1:
			ops = append(ops, GetOp(src, key))
		case 2:
			ops = append(ops, ScanOp(src, key, 1+rng.Intn(5)))
		case 3:
			if key == src {
				key = (src + 1) % n
			}
			ops = append(ops, RouteOp(src, key))
		case 4:
			// Re-put what the stream deletes, so routes keep their endpoints.
			ops = append(ops, DeleteOp(src, key), PutOp(src, key, []byte("again")))
		}
	}

	piped, err := New(n, WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	serveAll(t, piped, ops)

	sync, err := New(n, WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range ops {
		switch op.Kind {
		case RouteKind:
			_, err = sync.Request(op.Src, op.Dst)
		case GetKind:
			_, _, _, err = sync.Get(op.Src, op.Dst)
		case PutKind:
			_, _, err = sync.Put(op.Src, op.Dst, op.Value)
		case DeleteKind:
			_, err = sync.Delete(op.Src, op.Dst)
		case ScanKind:
			_, err = sync.Scan(op.Src, op.Dst, op.Limit)
		}
		if err != nil {
			t.Fatalf("synchronous op %d (%+v): %v", i, op, err)
		}
	}

	got, want := sync.Stats(), piped.Stats()
	if got != want {
		t.Errorf("Stats() differ between the paths:\n synchronous %+v\n ServeOps    %+v", got, want)
	}
	if want.Requests != len(ops) || want.MeanRouteDistance <= 0 || want.TotalTransformRounds <= 0 {
		t.Errorf("degenerate stats: %+v", want)
	}
}
