package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"lsasg/internal/core"
	"lsasg/internal/skipgraph"
	"lsasg/internal/testkit"
	"lsasg/internal/workload"
)

// This file holds the behaviour of one shard's step — route, then adjust —
// and of what the dispatcher does on a shard's graph between windows: the
// per-op miss, cancellation, the crash detect/repair cycle and the
// membership batch. Most tests run at S = 1, where an op is one leg, and at
// S = 4 where that costs nothing.

// shardCounts are the rows of the tests that run at S = 1 and S = 4.
var shardCounts = []int{1, 4}

// mustNew builds a service or fails the test.
func mustNew(t *testing.T, n int, cfg Config) *Service {
	t.Helper()
	svc, err := New(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// serveAll serves ops through Serve and returns the run's books and
// outcomes.
func serveAll(t *testing.T, svc *Service, ops []core.Op) (ServeStats, []Outcome) {
	t.Helper()
	var got []Outcome
	svc.cfg.OnOutcome = func(o Outcome) { got = append(got, o) }
	defer func() { svc.cfg.OnOutcome = nil }()
	st, err := svc.Serve(context.Background(), feedOps(ops))
	if err != nil {
		t.Fatal(err)
	}
	return st, got
}

// routeLive routes src → dst on one DSG's live graph, the way the step's
// route half does.
func routeLive(d *core.DSG, src, dst int64) (skipgraph.RouteResult, error) {
	return d.Graph().RouteKeys(skipgraph.KeyOf(src), skipgraph.KeyOf(dst))
}

// TestTolerateAdjustMiss drives every miss class through the step: a route
// whose endpoint is unknown or crashed is a recorded miss with no
// adjustment, never a failed run, while removing a key that is already gone
// stays an error.
func TestTolerateAdjustMiss(t *testing.T) {
	for _, tc := range []struct {
		name string
		prep func(svc *Service) error
		want error
	}{
		{name: "unknown adjust tolerated", prep: func(svc *Service) error { return svc.RemoveNode(3) }, want: skipgraph.ErrUnknownKey},
		{name: "crashed endpoint adjust tolerated", prep: func(svc *Service) error { return svc.Crash(3) }, want: skipgraph.ErrDeadNode},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, shards := range shardCounts {
				t.Run(fmt.Sprintf("s=%d", shards), func(t *testing.T) {
					svc := mustNew(t, 16, Config{Shards: shards, Seed: 7})
					if err := tc.prep(svc); err != nil {
						t.Fatal(err)
					}
					st, got := serveAll(t, svc, []core.Op{core.RouteOp(1, 3)})
					if len(got) != 1 || st.RouteMisses != 1 || got[0].TransformRounds != 0 || !errors.Is(got[0].Err, tc.want) {
						t.Errorf("miss recorded as %+v (%d misses), want one miss (%v) with no adjustment", got, st.RouteMisses, tc.want)
					}
				})
			}
		})
	}
	t.Run("unknown leave stays fatal", func(t *testing.T) {
		svc := mustNew(t, 16, Config{Shards: 1, Seed: 7})
		if err := svc.RemoveNode(3); err != nil {
			t.Fatal(err)
		}
		if err := svc.RemoveNode(3); err == nil {
			t.Error("leave of a key already gone must report an error")
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
		prep func(svc *Service) error
	}{
		{name: "unknown endpoint", prep: func(svc *Service) error { return svc.RemoveNode(9) }},
		{name: "dead endpoint", prep: func(svc *Service) error { return svc.Crash(9) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc := mustNew(t, 16, Config{Shards: 1, Seed: 7})
			if err := tc.prep(svc); err != nil {
				t.Fatal(err)
			}
			d := svc.shards[0].dsg
			clock := d.Clock()
			st, log := serveAll(t, svc, []core.Op{core.RouteOp(1, 8), core.RouteOp(3, 9), core.RouteOp(4, 12)})
			if st.Requests != 3 || st.RouteMisses != 1 || len(log) != 3 {
				t.Fatalf("served %d requests with %d misses (%d outcomes), want 3, 1, 3", st.Requests, st.RouteMisses, len(log))
			}
			if miss := log[1]; miss.Err == nil || miss.RouteDistance != 0 || miss.TransformRounds != 0 || miss.Alpha != 0 {
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

// TestCrashIdleDetectRepair is the failure cycle end to end on the shard
// that owns the key: inject a crash between windows, detect it at route
// time, let a Put of the key splice the corpse out and rejoin it, and
// observe routing recover.
func TestCrashIdleDetectRepair(t *testing.T) {
	for _, shards := range shardCounts {
		t.Run(fmt.Sprintf("s=%d", shards), func(t *testing.T) {
			svc := mustNew(t, 32, Config{Shards: shards, Seed: 17})
			if err := svc.RemoveNode(20); err != nil {
				t.Fatal(err)
			}
			if err := svc.Crash(20); !errors.Is(err, core.ErrUnknownNode) {
				t.Fatalf("crash of a removed key = %v, want ErrUnknownNode", err)
			}
			if err := svc.Crash(12); err != nil {
				t.Fatal(err)
			}
			sl := svc.shards[svc.Directory().ShardOf(12)]
			_, err := routeLive(sl.dsg, 13, 12)
			var dre *skipgraph.DeadRouteError
			if !errors.As(err, &dre) || dre.Node.ID() != 12 {
				t.Fatalf("probe of corpse: %v, want DeadRouteError on 12", err)
			}
			if o, err := svc.Apply(core.RouteOp(13, 12)); !errors.Is(err, skipgraph.ErrDeadNode) || !errors.Is(o.Err, skipgraph.ErrDeadNode) {
				t.Fatalf("served route into corpse: %v / %+v, want a miss carrying ErrDeadNode", err, o)
			}
			if o, err := svc.Apply(core.Op{Kind: core.OpPut, Src: 13, Dst: 12, Value: []byte("back")}); err != nil || o.Existed {
				t.Fatalf("repairing put = %+v, %v; want a fresh join", o, err)
			}
			serveAll(t, svc, []core.Op{core.RouteOp(13, 12), core.RouteOp(3, 25)})
			if ids := testkit.DeadIDs(sl.dsg.Graph().All()); len(ids) != 0 {
				t.Errorf("crashed ids after repair = %v, want none", ids)
			}
			if err := svc.Verify(); err != nil {
				t.Fatal(err)
			}
			if err := sl.dsg.Validate(); err != nil {
				t.Fatalf("live DSG invalid after crash cycle: %v", err)
			}
		})
	}
}

// TestServeSliceVisibleOnReturn exercises the step a window runs over each
// shard's legs, and the graph reads (GetValue/ScanFrom) behind Get and
// Scan: a served op is applied and visible as soon as its window returns,
// one epoch per op, and a longer slice of legs is the same step per leg.
func TestServeSliceVisibleOnReturn(t *testing.T) {
	svc := mustNew(t, 16, Config{Shards: 1, Seed: 5})
	sl := svc.shards[0]
	g := sl.dsg.Graph()
	e0 := sl.epoch
	one := func(op core.Op) Outcome {
		t.Helper()
		o, err := svc.Apply(op)
		if err != nil {
			t.Fatalf("%s %d: %v", op.Kind, op.Dst, err)
		}
		return o
	}

	res := one(core.Op{Kind: core.OpPut, Src: 1, Dst: 9, Value: []byte("nine")})
	if !res.Existed || res.Version != 1 {
		t.Fatalf("put of live key: Existed=%v Version=%d, want true/1", res.Existed, res.Version)
	}
	one(core.Op{Kind: core.OpPut, Src: 2, Dst: 4, Value: []byte("four")})

	if sl.epoch != e0+2 {
		t.Fatalf("each op is one epoch: epoch %d, want %d", sl.epoch, e0+2)
	}
	if v, ver, ok := g.GetValue(skipgraph.KeyOf(9)); !ok || ver != 1 || !bytes.Equal(v, []byte("nine")) {
		t.Fatalf("get 9 = %q v%d ok=%v", v, ver, ok)
	}
	if _, _, ok := g.GetValue(skipgraph.KeyOf(10)); ok {
		t.Fatal("get of a valueless key must miss")
	}
	if got := g.ScanFrom(skipgraph.KeyOf(0), 10); len(got) != 2 || got[0].ID != 4 || got[1].ID != 9 {
		t.Fatalf("scan = %v, want keys [4 9]", got)
	}

	if res = one(core.Op{Kind: core.OpGet, Src: 3, Dst: 9}); !res.Found || string(res.Value) != "nine" {
		t.Fatalf("get 9 = %+v", res)
	}
	if res = one(core.Op{Kind: core.OpDelete, Src: 3, Dst: 9}); !res.Existed {
		t.Fatalf("delete 9 = %+v", res)
	}
	if _, _, ok := g.GetValue(skipgraph.KeyOf(9)); ok {
		t.Fatal("deleted key still readable")
	}

	// A longer slice is the same step per leg, numbered on from the four
	// above: each route finds the graph the one before it adjusted.
	five := []core.Op{core.RouteOp(1, 2), core.RouteOp(3, 5), core.RouteOp(1, 2), core.RouteOp(8, 10), core.RouteOp(11, 12)}
	var got []legResult
	if pending, err := sl.serve(five, &got, false); err != nil || pending {
		t.Fatalf("slice of five: pending %v, %v", pending, err)
	}
	if len(got) != 5 || sl.epoch != e0+9 {
		t.Fatalf("after a 5-op slice: %d results at epoch %d, want 5 at %d", len(got), sl.epoch, e0+9)
	}
	if last := got[4]; last.Epoch != e0+8 || last.Op.Src != five[4].Src || last.Op.Dst != five[4].Dst {
		t.Fatalf("last result = %s at epoch %d, want %s at %d", last.Op.Kind, last.Epoch, five[4].Kind, e0+8)
	}
	if again := got[2]; again.RouteDistance != 0 {
		t.Fatalf("the repeated pair routed at distance %d inside one slice, want the direct link", again.RouteDistance)
	}
	rounds := 0
	for _, r := range got {
		rounds += r.TransformRounds
		if r.Miss != nil {
			t.Fatalf("leg %s %d→%d missed: %v", r.Op.Kind, r.Op.Src, r.Op.Dst, r.Miss)
		}
	}
	if rounds == 0 {
		t.Fatal("the slice adjusted nothing")
	}
}

// TestServeKVOps drives every op kind through the service (each op reads
// the graph all earlier ops left) and checks both the per-op read outcomes
// and the aggregated KV counters, including the unmeasurable route legs of
// puts to brand-new keys. Its subtest pins the read point inside one slice
// of legs.
func TestServeKVOps(t *testing.T) {
	const n = 48
	ops := []core.Op{
		{Kind: core.OpPut, Src: 1, Dst: 40, Value: []byte("new")}, // join: route leg unmeasurable
		{Kind: core.OpPut, Src: 2, Dst: 5, Value: []byte("live")}, // update in place
		{Kind: core.OpGet, Src: 3, Dst: 40},                       // hit, reads what the puts left
		{Kind: core.OpGet, Src: 3, Dst: 11},                       // valueless: miss, path measured
		{Kind: core.OpScan, Dst: 0, Limit: 8},                     // both records
		{Kind: core.OpScan, Dst: 6},                               // limit 0 reads one entry
		core.RouteOp(6, 12),                                       // plain route
		{Kind: core.OpDelete, Src: 1, Dst: 40},                    // tracked leave
		core.RouteOp(2, 40),                                       // endpoint gone: a miss
		{Kind: core.OpDelete, Src: 1, Dst: 40},                    // idempotent re-delete
	}
	for _, shards := range shardCounts {
		t.Run(fmt.Sprintf("s=%d", shards), func(t *testing.T) {
			svc := mustNew(t, n, Config{Shards: shards, Seed: 11})
			if err := svc.RemoveNode(40); err != nil {
				t.Fatal(err)
			}
			st, results := serveAll(t, svc, ops)

			if st.Requests != int64(len(ops)) || len(results) != len(ops) {
				t.Fatalf("requests = %d, outcomes = %d, want %d", st.Requests, len(results), len(ops))
			}
			want := ServeStats{Gets: 2, GetHits: 1, Puts: 2, PutInserts: 1, Deletes: 2, DeleteHits: 1, Scans: 2, ScannedEntries: 3}
			if st.Gets != want.Gets || st.GetHits != want.GetHits || st.Puts != want.Puts ||
				st.PutInserts != want.PutInserts || st.Deletes != want.Deletes ||
				st.DeleteHits != want.DeleteHits || st.Scans != want.Scans || st.ScannedEntries != want.ScannedEntries {
				t.Fatalf("kv counters = %+v", st)
			}
			// The put-join and the route to the deleted endpoint are both
			// unmeasurable when they route.
			if st.RouteMisses < 2 || st.TotalRouteDistance <= 0 {
				t.Fatalf("route misses = %d, total distance %d; want ≥ 2 and > 0", st.RouteMisses, st.TotalRouteDistance)
			}
			if r := results[2]; !r.Found || string(r.Value) != "new" || r.Version != 1 {
				t.Fatalf("get 40 = %+v, want hit of %q v1", r, "new")
			}
			if r := results[3]; r.Found || r.RouteHops == 0 {
				t.Fatalf("get 11 = Found=%v RouteHops=%d, want a measured miss", r.Found, r.RouteHops)
			}
			if r := results[4]; len(r.Entries) != 2 || r.Entries[0].ID != 5 || r.Entries[1].ID != 40 {
				t.Fatalf("scan entries = %v, want keys [5 40]", r.Entries)
			}
			if r := results[5]; len(r.Entries) != 1 || r.Entries[0].ID != 40 {
				t.Fatalf("scan from 6 with limit 0 = %v, want [40]", r.Entries)
			}
			if r := results[8]; r.Err == nil || (shards == 1 && r.TransformRounds != 0) {
				t.Fatalf("route to deleted endpoint = %+v, want a miss", r)
			}
			if r := results[9]; r.Existed {
				t.Fatal("re-delete of a gone key must report Existed=false")
			}
		})
	}

	// A leg routes after every leg ahead of it on its shard has adjusted, so
	// a Get sees the Put just before it even inside one slice.
	t.Run("read point", func(t *testing.T) {
		svc := mustNew(t, n, Config{Shards: 1, Seed: 11})
		if err := svc.RemoveNode(40); err != nil {
			t.Fatal(err)
		}
		var log []legResult
		_, err := svc.shards[0].serve([]core.Op{
			{Kind: core.OpPut, Src: 1, Dst: 40, Value: []byte("new")},
			{Kind: core.OpGet, Src: 3, Dst: 40},
		}, &log, false)
		if err != nil {
			t.Fatal(err)
		}
		if put, get := log[0], log[1]; put.Miss == nil || put.Existed || !get.Found || string(get.Value) != "new" || get.Miss != nil {
			t.Fatalf("put %+v, get %+v; want the join's own path unmeasured and the Get a measured hit", put, get)
		}
	})
}

// TestServeTolerantStillAbortsOnBadOp confirms the step only forgives
// vanished route endpoints: a route that fails for any other reason — here
// one stuck on a graph whose lists unlinkKey cut key 5 out of — aborts the
// run with the op identified in the error.
func TestServeTolerantStillAbortsOnBadOp(t *testing.T) {
	svc := mustNew(t, 64, Config{Shards: 1, Seed: 3})
	unlinkKey(t, svc, 5)
	_, err := svc.Serve(context.Background(), feedOps([]core.Op{core.RouteOp(1, 5)}))
	if err == nil || !strings.Contains(err.Error(), "route 1→5") {
		t.Fatalf("a stuck route = %v, want an abort naming the op", err)
	}
}

// TestMigrationValueEntriesAndErrors covers the membership batch behind
// migration: value-carrying entries arrive with versions intact, and
// failing entries are skipped with the first error reported.
func TestMigrationValueEntriesAndErrors(t *testing.T) {
	svc := mustNew(t, 48, Config{Shards: 1, Seed: 7})
	if err := svc.RemoveNode(40); err != nil {
		t.Fatal(err)
	}
	sl := svc.shards[0]
	// One failing join (id already present) and one failing leave (id
	// unknown): the good half still applies.
	joins := []skipgraph.Entry{
		{ID: 40, Value: []byte("forty"), Version: 9, HasValue: true},
		{ID: 3}, // already in the graph: Restore fails
	}
	if err := sl.applyBatch(joins, []int64{5, 99}); err == nil {
		t.Fatal("batch with duplicate join and unknown leave must report an error")
	}
	if v, ver, ok := sl.dsg.Graph().GetValue(skipgraph.KeyOf(40)); !ok || ver != 9 || string(v) != "forty" {
		t.Fatalf("migrated entry = %q v%d ok=%v, want forty v9", v, ver, ok)
	}
	if _, err := routeLive(sl.dsg, 1, 5); err == nil {
		t.Fatal("leave 5 did not apply")
	}

	// A later write to the migrated key continues its version history
	// instead of restarting it.
	o, err := svc.Apply(core.Op{Kind: core.OpPut, Src: 1, Dst: 40, Value: []byte("again")})
	if err != nil || !o.Existed || o.Version <= 9 {
		t.Fatalf("put after migration = %+v, %v; want an update past v9", o, err)
	}
}

// TestApplyMembershipBatchIdle: a bare (value-less) membership batch applies
// as one epoch and publishes the shard's gauges.
func TestApplyMembershipBatchIdle(t *testing.T) {
	svc := mustNew(t, 16, Config{Shards: 1, Seed: 5})
	sl := svc.shards[0]
	epoch0 := sl.epoch
	if err := sl.applyBatch([]skipgraph.Entry{{ID: 100}, {ID: 101}}, []int64{3}); err != nil {
		t.Fatal(err)
	}
	if sl.epoch != epoch0+1 {
		t.Errorf("epoch advanced %d→%d, want one batch", epoch0, sl.epoch)
	}
	if g := svc.Gauges(); g.Height != sl.dsg.Graph().Height() || g.DummyCount != sl.dsg.DummyCount() {
		t.Errorf("gauges %+v not published after the batch", g)
	}
	if _, err := routeLive(sl.dsg, 100, 101); err != nil {
		t.Errorf("joined keys not routable: %v", err)
	}
	if _, err := routeLive(sl.dsg, 1, 3); err == nil {
		t.Error("left key 3 still routable")
	}
	if err := sl.dsg.Validate(); err != nil {
		t.Fatalf("live DSG invalid after batch: %v", err)
	}
}

// TestServeAdaptsTopology: a repeated pair is cheap from its second request
// on — each request routes in the graph the one before it adjusted.
func TestServeAdaptsTopology(t *testing.T) {
	for _, shards := range shardCounts {
		t.Run(fmt.Sprintf("s=%d", shards), func(t *testing.T) {
			svc := mustNew(t, 64, Config{Shards: shards, Seed: 3})
			ops := make([]core.Op, 120)
			for i := range ops {
				ops[i] = core.RouteOp(1, 14) // one shard at S = 4 too
			}
			_, log := serveAll(t, svc, ops)
			if log[0].RouteDistance == 0 {
				t.Fatal("the first request already routed at distance 0")
			}
			for i := 1; i < len(log); i++ {
				if log[i].RouteDistance != 0 {
					t.Fatalf("request %d still routes at distance %d after adaptation", i, log[i].RouteDistance)
				}
			}
			if err := svc.Verify(); err != nil {
				t.Fatalf("invalid after serve: %v", err)
			}
		})
	}
}

// TestServeBadPairAborts: an invalid op — a self-route — aborts the run
// with an error; the requests before it stay served.
func TestServeBadPairAborts(t *testing.T) {
	for _, shards := range shardCounts {
		t.Run(fmt.Sprintf("s=%d", shards), func(t *testing.T) {
			svc := mustNew(t, 16, Config{Shards: shards, Seed: 1})
			ch := make(chan core.Op, 2)
			ch <- core.RouteOp(1, 2)
			ch <- core.RouteOp(3, 3)
			close(ch)
			st, err := svc.Serve(context.Background(), ch)
			if err == nil {
				t.Fatal("expected error for a self-route")
			}
			if st.Requests != 1 || svc.Totals().Requests != 1 {
				t.Errorf("%d requests counted next to the error, want the one before it", st.Requests)
			}
		})
	}
}

// TestServeContextCancel: cancelling mid-stream returns ctx.Err() with the
// stats accumulated so far, and the live graphs stay valid.
func TestServeContextCancel(t *testing.T) {
	for _, shards := range shardCounts {
		t.Run(fmt.Sprintf("s=%d", shards), func(t *testing.T) {
			const n = 32
			svc := mustNew(t, n, Config{Shards: shards, Seed: 9, RebalanceEvery: 16})
			ctx, cancel := context.WithCancel(context.Background())
			ch := make(chan core.Op)
			go func() {
				defer close(ch)
				reqs := workload.Uniform{Seed: 9}.Generate(n, 1000)
				for i, r := range reqs {
					// The documented producer pattern: select on the same ctx so
					// the feeder unblocks once Serve stops receiving.
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
			st, err := svc.Serve(ctx, ch)
			if err != context.Canceled {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if st.Requests == 0 {
				t.Error("no requests served before cancellation")
			}
			if err := svc.Verify(); err != nil {
				t.Fatalf("invalid after cancel: %v", err)
			}
		})
	}
}

// TestServeEarlyCancel: a context cancelled before Serve starts returns
// ctx.Err() having served nothing, and the service stays reusable.
func TestServeEarlyCancel(t *testing.T) {
	for _, shards := range shardCounts {
		t.Run(fmt.Sprintf("s=%d", shards), func(t *testing.T) {
			svc := mustNew(t, 16, Config{Shards: shards, Seed: 13})
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			ch := make(chan core.Op, 1)
			ch <- core.RouteOp(1, 2)
			close(ch)
			st, err := svc.Serve(ctx, ch)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if st.Requests != 0 {
				t.Errorf("served %d requests under a dead context, want 0", st.Requests)
			}
			// The service was released: a fresh healthy run must work.
			if st, _ := serveAll(t, svc, []core.Op{core.RouteOp(1, 2)}); st.Requests != 1 {
				t.Fatalf("reuse after early cancel served %d requests", st.Requests)
			}
		})
	}
}

// TestServeStress is the step's churn stress: a long run of routes with
// Put-join / Delete-leave churn between them, every op routed on the graph
// the op before it left. At S = 4 the shards serve each window's legs side
// by side, which is where the race detector earns its keep; CI runs this
// and TestServeKVOps with -race -count=2 on every PR.
func TestServeStress(t *testing.T) {
	const (
		core0 = 96 // the stable keys 0..95; 96..103 join and leave
		n     = core0 + 8
		total = 320
	)
	// Routes stay inside the stable core; the transient keys join and leave
	// between them, so the core stays routable throughout.
	rng := rand.New(rand.NewSource(100))
	ops := make([]core.Op, 0, total)
	for len(ops) < total {
		if len(ops)%40 == 39 {
			id := int64(core0 + len(ops)/40%8)
			ops = append(ops,
				core.Op{Kind: core.OpPut, Src: 1, Dst: id, Value: []byte("t")},
				core.Op{Kind: core.OpDelete, Src: 1, Dst: id})
			continue
		}
		u, v := int64(rng.Intn(core0)), int64(rng.Intn(core0))
		if u != v {
			ops = append(ops, core.RouteOp(u, v))
		}
	}
	for _, shards := range shardCounts {
		t.Run(fmt.Sprintf("s=%d", shards), func(t *testing.T) {
			svc := mustNew(t, n, Config{Shards: shards, Seed: 42})
			for id := int64(core0); id < n; id++ {
				if err := svc.RemoveNode(id); err != nil {
					t.Fatal(err)
				}
			}
			st, _ := serveAll(t, svc, ops)
			if st.Requests != int64(len(ops)) || st.RouteMisses != st.PutInserts || st.PutInserts == 0 || st.DeleteHits != st.PutInserts {
				t.Fatalf("stress books: %+v", st)
			}
			for i, sl := range svc.shards {
				if err := sl.dsg.Validate(); err != nil {
					t.Fatalf("shard %d invalid after stress: %v", i, err)
				}
			}
			// The final graphs must route the whole stable core.
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 200; i++ {
				u, v := int64(rng.Intn(core0)), int64(rng.Intn(core0))
				if u == v {
					continue
				}
				if err := routeLegs(svc, svc.Directory(), u, v); err != nil {
					t.Fatalf("final graph cannot route %d→%d: %v", u, v, err)
				}
			}
		})
	}
}
