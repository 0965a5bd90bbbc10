package serve

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"lsasg/internal/core"
	"lsasg/internal/skipgraph"
)

// feedOps pushes a fixed op list into a channel the engine consumes.
func feedOps(ops []core.Op) <-chan core.Op {
	ch := make(chan core.Op)
	go func() {
		defer close(ch)
		for _, op := range ops {
			ch <- op
		}
	}()
	return ch
}

// TestServeSliceVisibleOnReturn exercises the slice entry point the sharded
// dispatcher serves its windows through — synchronous ops are one-op
// slices — and the graph reads (GetValue/ScanFrom) behind Get and Scan:
// a served slice is applied and visible as soon as the call returns, one
// epoch per op, like the channel it stands in for.
func TestServeSliceVisibleOnReturn(t *testing.T) {
	d := core.New(16, core.Config{A: 4, Seed: 5})
	var got []Result
	e := New(d, Config{OnResult: func(r Result) { got = append(got, r) }})
	g := d.Graph()
	e0 := e.epoch
	var st Stats
	one := func(op core.Op) Result {
		t.Helper()
		if err := e.ServeSlice([]core.Op{op}, &st); err != nil {
			t.Fatalf("slice of %s %d: %v", op.Kind, op.Dst, err)
		}
		return got[len(got)-1]
	}

	res := one(core.Op{Kind: core.OpPut, Src: 1, Dst: 9, Value: []byte("nine")})
	if !res.Existed || res.Version != 1 {
		t.Fatalf("put of live key: Existed=%v Version=%d, want true/1", res.Existed, res.Version)
	}
	one(core.Op{Kind: core.OpPut, Src: 2, Dst: 4, Value: []byte("four")})

	if e.epoch != e0+2 {
		t.Fatalf("each op is one epoch: epoch %d, want %d", e.epoch, e0+2)
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

	// A longer slice is the same step per op, numbered on from the four
	// above: each route finds the graph the one before it adjusted.
	five := []core.Op{core.RouteOp(1, 2), core.RouteOp(3, 5), core.RouteOp(1, 2), core.RouteOp(8, 10), core.RouteOp(11, 12)}
	if err := e.ServeSlice(five, &st); err != nil {
		t.Fatal(err)
	}
	if st.Requests != 9 || e.epoch != e0+9 {
		t.Fatalf("after a 5-op slice: %d requests at epoch %d, want 9 at %d", st.Requests, e.epoch, e0+9)
	}
	if last := got[len(got)-1]; last.Seq != 8 || last.Epoch != e0+8 {
		t.Fatalf("last result = seq %d epoch %d, want 8/%d", last.Seq, last.Epoch, e0+8)
	}
	if again := got[len(got)-3]; again.RouteDistance != 0 {
		t.Fatalf("the repeated pair routed at distance %d inside one slice, want the direct link", again.RouteDistance)
	}
}

// TestServeKVOps drives every op kind through the engine (each op reads the
// graph all earlier ops left) and checks both the per-result read outcomes
// and the aggregated KV counters, including the unmeasurable route legs of
// puts to brand-new keys. Its subtest pins the read point inside one slice.
func TestServeKVOps(t *testing.T) {
	const n = 16
	var results []Result
	e := New(core.New(n, core.Config{A: 4, Seed: 11}), Config{
		OnResult: func(r Result) { results = append(results, r) },
	})
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
	st, err := e.Serve(context.Background(), feedOps(ops))
	if err != nil {
		t.Fatalf("serve: %v", err)
	}

	if st.Requests != int64(len(ops)) {
		t.Fatalf("requests = %d, want %d", st.Requests, len(ops))
	}
	want := Stats{Gets: 2, GetHits: 1, Puts: 2, PutInserts: 1, Deletes: 2, DeleteHits: 1, Scans: 2, ScannedEntries: 3}
	if st.Gets != want.Gets || st.GetHits != want.GetHits || st.Puts != want.Puts ||
		st.PutInserts != want.PutInserts || st.Deletes != want.Deletes ||
		st.DeleteHits != want.DeleteHits || st.Scans != want.Scans || st.ScannedEntries != want.ScannedEntries {
		t.Fatalf("kv counters = %+v", st)
	}
	// The put-join and the route to the deleted endpoint are both
	// unmeasurable when they route.
	if st.RouteMisses < 2 {
		t.Fatalf("route misses = %d, want >= 2", st.RouteMisses)
	}
	if st.MeanRouteDistance() <= 0 {
		t.Fatalf("mean route distance = %v, want > 0", st.MeanRouteDistance())
	}
	if (Stats{}).MeanRouteDistance() != 0 {
		t.Fatal("zero-request mean must be 0")
	}

	if len(results) != len(ops) {
		t.Fatalf("observed %d results, want %d", len(results), len(ops))
	}
	if r := results[2]; !r.Found || string(r.Value) != "new" || r.Version != 1 {
		t.Fatalf("get 40 = %+v, want hit of %q v1", r, "new")
	}
	if r := results[3]; r.Found || r.RouteMiss {
		t.Fatalf("get 11 = Found=%v RouteMiss=%v, want measurable miss", r.Found, r.RouteMiss)
	}
	if r := results[4]; len(r.Entries) != 2 || r.Entries[0].ID != 5 || r.Entries[1].ID != 40 {
		t.Fatalf("scan entries = %v, want keys [5 40]", r.Entries)
	}
	if r := results[5]; len(r.Entries) != 1 || r.Entries[0].ID != 40 {
		t.Fatalf("scan from 6 with limit 0 = %v, want [40]", r.Entries)
	}
	if r := results[8]; !r.RouteMiss || r.TransformRounds != 0 {
		t.Fatalf("route to deleted endpoint = %+v, want a miss", r)
	}
	if r := results[9]; r.Existed {
		t.Fatal("re-delete of a gone key must report Existed=false")
	}

	// An op routes after every op ahead of it has adjusted, so a Get sees
	// the Put just before it even inside one slice.
	t.Run("read point", func(t *testing.T) {
		var log []Result
		e := New(core.New(n, core.Config{A: 4, Seed: 11}), Config{OnResult: func(r Result) { log = append(log, r) }})
		var st Stats
		err := e.ServeSlice([]core.Op{
			{Kind: core.OpPut, Src: 1, Dst: 40, Value: []byte("new")},
			{Kind: core.OpGet, Src: 3, Dst: 40},
		}, &st)
		if err != nil {
			t.Fatal(err)
		}
		if put, get := log[0], log[1]; !put.RouteMiss || put.Existed || !get.Found || string(get.Value) != "new" || get.RouteMiss {
			t.Fatalf("put %+v, get %+v; want the join's own path unmeasured and the Get a measured hit", put, get)
		}
	})
}

// TestServeTolerantStillAbortsOnBadOp confirms the engine only forgives
// vanished route endpoints — a structurally invalid op (self-route) still
// aborts the run with the op identified in the error.
func TestServeTolerantStillAbortsOnBadOp(t *testing.T) {
	e := New(core.New(16, core.Config{A: 4, Seed: 3}), Config{})
	_, err := e.Serve(context.Background(), feedOps([]core.Op{core.RouteOp(7, 7)}))
	if err == nil || !strings.Contains(err.Error(), "route 7→7") {
		t.Fatalf("self-route = %v, want an abort naming the op", err)
	}
}

// TestMigrationValueEntriesAndErrors covers the migration surface:
// value-carrying entries arrive with versions intact, and failing entries
// are skipped with the first error reported.
func TestMigrationValueEntriesAndErrors(t *testing.T) {
	d := core.New(16, core.Config{A: 4, Seed: 7})
	var last Result
	e := New(d, Config{OnResult: func(r Result) { last = r }})

	// One failing join (id already present) and one failing leave (id
	// unknown): the good half still applies.
	joins := []skipgraph.Entry{
		{ID: 40, Value: []byte("forty"), Version: 9, HasValue: true},
		{ID: 3}, // already in the graph: Restore fails
	}
	if err := e.ApplyMigrationBatch(joins, []int64{5, 99}); err == nil {
		t.Fatal("batch with duplicate join and unknown leave must report an error")
	}
	if v, ver, ok := d.Graph().GetValue(skipgraph.KeyOf(40)); !ok || ver != 9 || string(v) != "forty" {
		t.Fatalf("migrated entry = %q v%d ok=%v, want forty v9", v, ver, ok)
	}
	if _, err := routeLive(d, 1, 5); err == nil {
		t.Fatal("leave 5 did not apply")
	}

	// A later write to the migrated key continues its version history
	// instead of restarting it.
	var st Stats
	err := e.ServeSlice([]core.Op{{Kind: core.OpPut, Src: 1, Dst: 40, Value: []byte("again")}}, &st)
	if err != nil || !last.Existed || last.Version <= 9 {
		t.Fatalf("put after migration = %+v, %v; want an update past v9", last, err)
	}
}
