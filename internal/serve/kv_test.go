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

// TestApplyOpIdleAndSnapshotReads exercises the synchronous single-op entry
// point and the lock-free snapshot read surface (Get/Scan) the sharded
// service builds its sync KV calls on.
func TestApplyOpIdleAndSnapshotReads(t *testing.T) {
	e := New(core.New(16, core.Config{A: 4, Seed: 5}), Config{})
	e0 := e.Snapshot().Epoch

	res, err := e.ApplyOpIdle(core.Op{Kind: core.OpPut, Src: 1, Dst: 9, Value: []byte("nine")})
	if err != nil {
		t.Fatalf("idle put: %v", err)
	}
	if !res.Existed || res.Version != 1 {
		t.Fatalf("idle put of live key: Existed=%v Version=%d, want true/1", res.Existed, res.Version)
	}
	if _, err := e.ApplyOpIdle(core.Op{Kind: core.OpPut, Src: 2, Dst: 4, Value: []byte("four")}); err != nil {
		t.Fatalf("idle put: %v", err)
	}

	snap := e.Snapshot()
	if snap.Epoch != e0+2 {
		t.Fatalf("each idle op must publish: epoch %d, want %d", snap.Epoch, e0+2)
	}
	if v, ver, ok := snap.Get(9); !ok || ver != 1 || !bytes.Equal(v, []byte("nine")) {
		t.Fatalf("snapshot get 9 = %q v%d ok=%v", v, ver, ok)
	}
	if _, _, ok := snap.Get(10); ok {
		t.Fatal("snapshot get of a valueless key must miss")
	}
	if got := snap.Scan(0, 10); len(got) != 2 || got[0].ID != 4 || got[1].ID != 9 {
		t.Fatalf("snapshot scan = %v, want keys [4 9]", got)
	}
	if got := snap.Scan(5, 0); len(got) != 1 || got[0].ID != 9 {
		t.Fatalf("snapshot scan with clamped limit = %v, want [9]", got)
	}

	res, err = e.ApplyOpIdle(core.Op{Kind: core.OpGet, Src: 3, Dst: 9})
	if err != nil || !res.Found || string(res.Value) != "nine" {
		t.Fatalf("idle get 9 = %+v, %v", res, err)
	}
	res, err = e.ApplyOpIdle(core.Op{Kind: core.OpDelete, Src: 3, Dst: 9})
	if err != nil || !res.Existed {
		t.Fatalf("idle delete 9 = %+v, %v", res, err)
	}
	if _, _, ok := e.Snapshot().Get(9); ok {
		t.Fatal("deleted key still readable in the fresh snapshot")
	}
}

// TestServeKVOps drives every op kind through the deterministic pipeline
// with BatchSize 1 (each op reads the snapshot of all earlier ops) and
// checks both the per-result read outcomes and the aggregated KV counters,
// including the tolerated route legs of puts to brand-new keys.
func TestServeKVOps(t *testing.T) {
	const n = 16
	var results []Result
	e := New(core.New(n, core.Config{A: 4, Seed: 11}), Config{
		Parallelism:        2,
		BatchSize:          1,
		TolerateAdjustMiss: true,
		OnResult:           func(r Result) { results = append(results, r) },
	})
	ops := []core.Op{
		{Kind: core.OpPut, Src: 1, Dst: 40, Value: []byte("new")}, // join: route leg unmeasurable
		{Kind: core.OpPut, Src: 2, Dst: 5, Value: []byte("live")}, // update in place
		{Kind: core.OpGet, Src: 3, Dst: 40},                       // hit, reads previous snapshot
		{Kind: core.OpGet, Src: 3, Dst: 11},                       // valueless: miss, path measured
		{Kind: core.OpScan, Dst: 0, Limit: 8},                     // both records
		core.RouteOp(6, 12),                                       // plain route
		{Kind: core.OpDelete, Src: 1, Dst: 40},                    // tracked leave
		core.RouteOp(2, 40),                                       // endpoint gone: tolerated miss
		{Kind: core.OpDelete, Src: 1, Dst: 40},                    // idempotent re-delete
	}
	st, err := e.Serve(context.Background(), feedOps(ops))
	if err != nil {
		t.Fatalf("serve: %v", err)
	}

	if st.Requests != int64(len(ops)) || st.Batches != int64(len(ops)) {
		t.Fatalf("requests/batches = %d/%d, want %d each", st.Requests, st.Batches, len(ops))
	}
	want := Stats{Gets: 2, GetHits: 1, Puts: 2, PutInserts: 1, Deletes: 2, DeleteHits: 1, Scans: 1, ScannedEntries: 2}
	if st.Gets != want.Gets || st.GetHits != want.GetHits || st.Puts != want.Puts ||
		st.PutInserts != want.PutInserts || st.Deletes != want.Deletes ||
		st.DeleteHits != want.DeleteHits || st.Scans != want.Scans || st.ScannedEntries != want.ScannedEntries {
		t.Fatalf("kv counters = %+v", st)
	}
	// The put-join and the route to the deleted endpoint are both
	// unmeasurable in their snapshots.
	if st.RouteMisses < 2 {
		t.Fatalf("route misses = %d, want >= 2", st.RouteMisses)
	}
	if st.MeanAdjustLag() != 1 {
		t.Fatalf("mean adjust lag at BatchSize 1 = %v, want 1", st.MeanAdjustLag())
	}
	if st.MeanRouteDistance() <= 0 {
		t.Fatalf("mean route distance = %v, want > 0", st.MeanRouteDistance())
	}
	var zero Stats
	if zero.MeanRouteDistance() != 0 || zero.MeanAdjustLag() != 0 {
		t.Fatal("zero-request means must be 0")
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
	if r := results[7]; !r.RouteMiss || r.TransformRounds != 0 {
		t.Fatalf("route to deleted endpoint = %+v, want tolerated miss", r)
	}
	if r := results[8]; r.Existed {
		t.Fatal("re-delete of a gone key must report Existed=false")
	}
}

// TestServeTolerantStillAbortsOnBadOp confirms TolerateAdjustMiss only
// forgives vanished route endpoints — a structurally invalid op (self-route)
// still aborts the batch with the op identified in the error.
func TestServeTolerantStillAbortsOnBadOp(t *testing.T) {
	e := New(core.New(16, core.Config{A: 4, Seed: 3}), Config{BatchSize: 1, TolerateAdjustMiss: true})
	_, err := e.Serve(context.Background(), feedOps([]core.Op{core.RouteOp(7, 7)}))
	if err == nil || !strings.Contains(err.Error(), "route 7→7") {
		t.Fatalf("self-route under tolerance = %v, want batch abort naming the op", err)
	}
}

// TestMigrationValueEntriesAndErrors covers the migration surface:
// value-carrying entries arrive with versions intact, failing entries are
// skipped with the first error reported, and the snapshot publishes either
// way.
func TestMigrationValueEntriesAndErrors(t *testing.T) {
	e := New(core.New(16, core.Config{A: 4, Seed: 7}), Config{BatchSize: 4})
	epoch := e.Snapshot().Epoch

	// One failing join (id already present) and one failing leave (id
	// unknown): the good half still applies.
	joins := []skipgraph.Entry{
		{ID: 40, Value: []byte("forty"), Version: 9, HasValue: true},
		{ID: 3}, // already in the graph: Restore fails
	}
	if err := e.ApplyMigrationBatch(joins, []int64{5, 99}); err == nil {
		t.Fatal("batch with duplicate join and unknown leave must report an error")
	}
	snap := e.Snapshot()
	if snap.Epoch != epoch+1 {
		t.Fatalf("failing batch published epoch %d, want %d", snap.Epoch, epoch+1)
	}
	if v, ver, ok := snap.Get(40); !ok || ver != 9 || string(v) != "forty" {
		t.Fatalf("migrated entry = %q v%d ok=%v, want forty v9", v, ver, ok)
	}
	if _, err := snap.Route(1, 5); err == nil {
		t.Fatal("leave 5 did not apply")
	}

	// A later write to the migrated key continues its version history
	// instead of restarting it.
	res, err := e.ApplyOpIdle(core.Op{Kind: core.OpPut, Src: 1, Dst: 40, Value: []byte("again")})
	if err != nil || !res.Existed || res.Version <= 9 {
		t.Fatalf("put after migration = %+v, %v; want an update past v9", res, err)
	}
}
