package lsasg

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"lsasg/internal/core"
	"lsasg/internal/serve"
	"lsasg/internal/workload"
)

func serveAll(t *testing.T, nw *Network, pairs []Pair) ServeStats {
	t.Helper()
	ch := make(chan Pair)
	go func() {
		defer close(ch)
		for _, p := range pairs {
			ch <- p
		}
	}()
	st, err := nw.Serve(context.Background(), ch)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func servePairs(n, m int, seed int64) []Pair {
	rng := rand.New(rand.NewSource(seed))
	pairs := make([]Pair, 0, m)
	for len(pairs) < m {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			pairs = append(pairs, Pair{Src: u, Dst: v})
		}
	}
	return pairs
}

// TestServePublicAPI drives the concurrent engine through the public surface
// and checks it feeds the same bookkeeping as Request.
func TestServePublicAPI(t *testing.T) {
	nw, err := New(48, WithSeed(11), WithParallelism(4), WithBatchSize(8))
	if err != nil {
		t.Fatal(err)
	}
	pairs := servePairs(48, 160, 11)
	st := serveAll(t, nw, pairs)

	if st.Requests != 160 || st.Batches != 20 {
		t.Fatalf("served %d requests in %d batches, want 160 in 20", st.Requests, st.Batches)
	}
	if st.MeanAdjustLag != 4.5 || st.MaxAdjustLag != 8 {
		t.Errorf("adjust lag mean/max = %v/%d, want 4.5/8", st.MeanAdjustLag, st.MaxAdjustLag)
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

// TestServeDeterministicPublic mirrors the engine-level determinism contract
// at the API level: p=1 and p=8 produce identical ServeStats.
func TestServeDeterministicPublic(t *testing.T) {
	run := func(p int) ServeStats {
		nw, err := New(32, WithSeed(4), WithParallelism(p), WithBatchSize(16))
		if err != nil {
			t.Fatal(err)
		}
		return serveAll(t, nw, servePairs(32, 320, 4))
	}
	a, b := run(1), run(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("ServeStats diverge across parallelism:\n p=1: %+v\n p=8: %+v", a, b)
	}
}

// TestServeValidation: invalid pairs abort with an error.
func TestServeValidation(t *testing.T) {
	nw, err := New(8, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Pair{{0, 0}, {-1, 2}, {3, 8}} {
		ch := make(chan Pair, 1)
		ch <- bad
		close(ch)
		if _, err := nw.Serve(context.Background(), ch); err == nil {
			t.Errorf("pair %+v should fail", bad)
		}
	}
}

// TestUnshardedMatchesEngine pins that the single graph is the S = 1 case of
// the sharded service and nothing more: an unsharded Network serving 3 000
// Zipf(1.2) routes at batch 1 reports exactly what a bare serve.Engine over
// core.New(n, {A: 4, Seed: 1}) reports — total distance, longest route, ρ,
// dummies, height — and those are the numbers the daemon's route workloads
// have served since the transformation last changed a decision.
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
			reqs := workload.Zipf{Seed: 17, S: 1.2}.Generate(tc.n, 3000) // E17's stream

			d := core.New(tc.n, core.Config{A: 4, Seed: 1})
			eng := serve.New(d, serve.Config{BatchSize: 1})
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

			nw, err := New(tc.n, WithSeed(1), WithBatchSize(1))
			if err != nil {
				t.Fatal(err)
			}
			pairs := make([]Pair, len(reqs))
			for i, r := range reqs {
				pairs[i] = Pair{Src: r.Src, Dst: r.Dst}
			}
			got := serveAll(t, nw, pairs)

			if got.Requests != want.Requests || got.Batches != want.Batches ||
				got.MeanRouteDistance != want.MeanRouteDistance() ||
				got.MaxRouteDistance != want.MaxRouteDistance ||
				got.TotalTransformRounds != want.TotalTransformRounds ||
				got.DummyCount != d.DummyCount() || got.Height != want.HeightAfter {
				t.Errorf("Network at S = 1 diverges from the bare engine:\n network %+v\n engine  %+v (dummies %d)", got, want, d.DummyCount())
			}
			if want.TotalRouteDistance != tc.dist || int64(want.MaxRouteDistance) != tc.max ||
				want.TotalTransformRounds != tc.rho || d.DummyCount() != tc.dummies || want.HeightAfter != tc.height {
				t.Errorf("engine totals moved: distance %d max %d ρ %d dummies %d height %d, want %d / %d / %d / %d / %d",
					want.TotalRouteDistance, want.MaxRouteDistance, want.TotalTransformRounds, d.DummyCount(), want.HeightAfter,
					tc.dist, tc.max, tc.rho, tc.dummies, tc.height)
			}
			if st := nw.Stats(); st.Requests != 3000 || st.TotalTransformRounds != tc.rho || int64(st.MaxRouteDistance) != tc.max {
				t.Errorf("Stats() after the run: %+v", st)
			}
		})
	}
}

// TestStatsSameThroughEitherPath: a synchronous Get/Put/Delete/Scan/Request
// is a one-op window of the pipeline ServeOps runs, so one op stream served
// once through ServeOps (batch 1) and once through the synchronous methods
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

	piped, err := New(n, WithSeed(8), WithBatchSize(1))
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan Op)
	go func() {
		defer close(ch)
		for _, op := range ops {
			ch <- op
		}
	}()
	if _, err := piped.ServeOps(context.Background(), ch, nil); err != nil {
		t.Fatal(err)
	}

	sync, err := New(n, WithSeed(8), WithBatchSize(1))
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
