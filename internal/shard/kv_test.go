package shard

import (
	"context"
	"fmt"
	"testing"

	"lsasg/internal/core"
)

// KV tests for the sharded service: value records must ride along when the
// rebalancer migrates key ranges between shards, deletions must stick across
// migrations, and stitched scans must stay globally sorted whatever the
// directory looks like.

// feedOps pushes a prebuilt op slice into a channel the service consumes.
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

// TestKVValuesSurviveMigration writes a record to every key, then drives a
// hot-range read load that forces the rebalancer to migrate key ranges
// between shards mid-serve. Every record — value bytes, version, deletion —
// must come out of the run exactly as written: migration moves records, it
// never rewrites them.
func TestKVValuesSurviveMigration(t *testing.T) {
	const n = 64
	svc, err := New(n, Config{Shards: 4, Seed: 3, RebalanceEvery: 50})
	if err != nil {
		t.Fatal(err)
	}

	var ops []core.Op
	for k := int64(0); k < n; k++ {
		ops = append(ops, core.Op{Kind: core.OpPut, Src: (k + 1) % n, Dst: k,
			Value: []byte(fmt.Sprintf("val-%d", k))})
	}
	// Two deletions that must stay deleted across every later migration.
	deleted := []int64{5, 40}
	for _, k := range deleted {
		ops = append(ops, core.Op{Kind: core.OpDelete, Src: (k + 1) % n, Dst: k})
	}
	// Hot reads on shard 0's low range force donations toward shard 1.
	for i := 0; i < 400; i++ {
		ops = append(ops, core.Op{Kind: core.OpGet, Src: int64(8 + i%(n-8)), Dst: int64(i % 8)})
	}
	st, err := svc.Serve(context.Background(), feedOps(ops))
	if err != nil {
		t.Fatal(err)
	}
	if st.Rebalances == 0 || st.MovedKeys == 0 {
		t.Fatalf("hot-range KV load triggered no migration: %+v", st)
	}
	if st.Puts != n || st.PutInserts != 0 || st.DeleteHits != int64(len(deleted)) {
		t.Errorf("KV books: %+v", st)
	}

	// Versions were assigned in key order by the puts, per owning shard's
	// clock; the bytes are what identifies the record, the version must be
	// the one the put reported — read both back through the directory.
	isDeleted := func(k int64) bool { return k == deleted[0] || k == deleted[1] }
	for k := int64(0); k < n; k++ {
		o, err := svc.Apply(core.Op{Kind: core.OpGet, Src: (k + 3) % n, Dst: k})
		if err != nil {
			t.Fatalf("get %d after migrations: %v", k, err)
		}
		if isDeleted(k) {
			if o.Found {
				t.Errorf("deleted key %d resurrected with %q after migration", k, o.Value)
			}
			continue
		}
		if !o.Found || string(o.Value) != fmt.Sprintf("val-%d", k) {
			t.Errorf("key %d after migration: found=%v value=%q", k, o.Found, o.Value)
		}
	}

	// Every shard still validates and owns exactly the directory's range.
	// The gets that read the records back fed the load window too, so the
	// epoch is held to the lifetime migration count, not the Serve run's.
	dir := svc.Directory()
	if want := svc.Totals().Rebalances; dir.Epoch() != want {
		t.Errorf("directory epoch %d, want %d", dir.Epoch(), want)
	}
	for _, sl := range svc.shards {
		if err := sl.dsg.Validate(); err != nil {
			t.Fatalf("shard DSG invalid after value migrations: %v", err)
		}
	}

	// A full stitched scan reads the surviving records globally sorted.
	o, err := svc.Apply(core.Op{Kind: core.OpScan, Dst: 0, Limit: n})
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Entries) != n-len(deleted) {
		t.Fatalf("full scan returned %d records, want %d", len(o.Entries), n-len(deleted))
	}
	want := int64(0)
	for _, e := range o.Entries {
		for isDeleted(want) {
			want++
		}
		if e.ID != want || string(e.Value) != fmt.Sprintf("val-%d", e.ID) {
			t.Fatalf("scan entry (%d, %q), want key %d with its own record", e.ID, e.Value, want)
		}
		want++
	}
}

// TestKVScanStitchesAcrossShards pins the cross-shard range read: a scan
// whose window spans shard boundaries comes back globally sorted and
// limit-exact, and a scan starting mid-shard begins at the first key ≥
// start.
func TestKVScanStitchesAcrossShards(t *testing.T) {
	const n = 32
	svc, err := New(n, Config{Shards: 4, Seed: 1}) // 8 keys per shard
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < n; k += 2 { // even keys only
		if _, err := svc.Apply(core.Op{Kind: core.OpPut, Src: (k + 1) % n, Dst: k,
			Value: []byte{byte(k)}}); err != nil {
			t.Fatal(err)
		}
	}

	// Start mid-shard-0, span all four shards.
	o, err := svc.Apply(core.Op{Kind: core.OpScan, Dst: 5, Limit: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Entries) != 10 {
		t.Fatalf("scan(5, 10) returned %d entries", len(o.Entries))
	}
	for i, e := range o.Entries {
		if want := int64(6 + 2*i); e.ID != want {
			t.Errorf("scan position %d holds key %d, want %d", i, e.ID, want)
		}
	}

	// Limit larger than what remains: exactly the tail comes back.
	o, err = svc.Apply(core.Op{Kind: core.OpScan, Dst: 25, Limit: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Entries) != 3 { // 26, 28, 30
		t.Fatalf("tail scan returned %d entries, want 3", len(o.Entries))
	}
}

// TestServePipelinedScansAndOutcomes drives scans and a delete-then-reinsert
// through the deterministic pipeline and checks the assembled outcomes the
// window barrier hands to OnOutcome: fanned scan legs stitch in shard order
// and truncate at the limit, and the re-put of a deleted key counts as an
// insert.
func TestServePipelinedScansAndOutcomes(t *testing.T) {
	const n = 32
	var outs []Outcome
	svc, err := New(n, Config{Shards: 4, Seed: 2,
		OnOutcome: func(o Outcome) { outs = append(outs, o) }})
	if err != nil {
		t.Fatal(err)
	}
	var ops []core.Op
	for k := int64(0); k < n; k += 4 { // keys 0,4,...,28 across all shards
		ops = append(ops, core.Op{Kind: core.OpPut, Src: (k + 1) % n, Dst: k,
			Value: []byte(fmt.Sprintf("v%d", k))})
	}
	ops = append(ops,
		core.Op{Kind: core.OpScan, Dst: 2, Limit: 5},                       // spans shards, limit-truncated
		core.Op{Kind: core.OpScan, Dst: 30, Limit: 8},                      // tail: nothing at or after 30
		core.Op{Kind: core.OpDelete, Src: 1, Dst: 12},                      // tracked leave
		core.Op{Kind: core.OpPut, Src: 1, Dst: 12, Value: []byte("again")}, // re-join
	)
	st, err := svc.Serve(context.Background(), feedOps(ops))
	if err != nil {
		t.Fatal(err)
	}
	if st.Scans != 2 || st.ScannedEntries != 5 {
		t.Fatalf("scan books = Scans:%d ScannedEntries:%d, want 2/5", st.Scans, st.ScannedEntries)
	}
	if st.PutInserts != 1 || st.DeleteHits != 1 {
		t.Fatalf("reinsert books = PutInserts:%d DeleteHits:%d, want 1/1", st.PutInserts, st.DeleteHits)
	}
	if len(outs) != len(ops) {
		t.Fatalf("observed %d outcomes, want %d", len(outs), len(ops))
	}
	span := outs[len(ops)-4]
	if len(span.Entries) != 5 {
		t.Fatalf("spanning scan = %d entries, want 5", len(span.Entries))
	}
	for i, e := range span.Entries {
		if want := int64(4 + 4*i); e.ID != want || string(e.Value) != fmt.Sprintf("v%d", want) {
			t.Fatalf("scan position %d holds (%d, %q), want key %d", i, e.ID, e.Value, want)
		}
	}
	if tail := outs[len(ops)-3]; len(tail.Entries) != 0 {
		t.Fatalf("tail scan past the last record = %v, want empty", tail.Entries)
	}
	if reput := outs[len(ops)-1]; reput.Existed {
		t.Fatal("put of a freshly deleted key must be an insert")
	}
}

// TestApplySyncRoutesAndErrors covers the synchronous surface beyond KV:
// plain routes decompose into shard legs, a route to a departed key
// fails, and a malformed envelope is rejected before touching any shard.
func TestApplySyncRoutesAndErrors(t *testing.T) {
	const n = 32
	svc, err := New(n, Config{Shards: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if svc.N() != n || svc.Shards() != 4 {
		t.Fatalf("N/Shards = %d/%d, want %d/4", svc.N(), svc.Shards(), n)
	}
	if _, err := svc.Apply(core.RouteOp(3, 27)); err != nil { // cross-shard
		t.Fatalf("cross-shard sync route: %v", err)
	}
	if _, err := svc.Apply(core.RouteOp(5, 6)); err != nil { // intra-shard
		t.Fatalf("intra-shard sync route: %v", err)
	}
	if _, err := svc.Apply(core.Op{Kind: core.OpDelete, Src: 1, Dst: 6}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Apply(core.RouteOp(5, 6)); err == nil {
		t.Fatal("sync route to a deleted key must fail")
	}
	if _, err := svc.Apply(core.RouteOp(-1, 3)); err == nil {
		t.Fatal("out-of-range source must be rejected")
	}
	if _, err := svc.Apply(core.Op{Kind: core.OpGet, Src: 0, Dst: int64(n)}); err == nil {
		t.Fatal("out-of-range key must be rejected")
	}
}

// TestSingleShardDefaultsAndGuards pins the config clamps (Shards < 1 means
// one shard, MinShardKeys floors at 2) and the out-of-range crash guard.
func TestSingleShardDefaultsAndGuards(t *testing.T) {
	svc, err := New(16, Config{Shards: 0, MinShardKeys: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if svc.Shards() != 1 {
		t.Fatalf("Shards() = %d, want the single-shard clamp", svc.Shards())
	}
	if _, err := svc.Apply(core.Op{Kind: core.OpPut, Src: 1, Dst: 8, Value: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	// A single-shard pipelined scan has fan 1 (intra-shard).
	st, err := svc.Serve(context.Background(), feedOps([]core.Op{{Kind: core.OpScan, Dst: 0, Limit: 4}}))
	if err != nil {
		t.Fatal(err)
	}
	if st.Scans != 1 || st.ScannedEntries != 1 || st.Cross != 0 {
		t.Fatalf("single-shard scan books = %+v", st)
	}

	if err := svc.Crash(99); err == nil {
		t.Fatal("Crash of an out-of-range key must fail")
	}
}
