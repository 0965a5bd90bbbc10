package lsasg

import (
	"context"
	"fmt"
	"testing"
)

// Public-surface tests for the KV data plane: the synchronous
// Get/Put/Delete/Scan API and the streamed ServeOps, on both the
// single-graph Network and the sharded service.

func TestNetworkKVRoundTrip(t *testing.T) {
	nw, err := New(16, WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}

	// Never-written keys miss.
	if _, _, found, err := nw.Get(0, 9); err != nil || found {
		t.Fatalf("get of unwritten key: found=%v err=%v", found, err)
	}

	ver, existed, err := nw.Put(0, 9, []byte("hello"))
	if err != nil || !existed || ver != 1 {
		t.Fatalf("put: version=%d existed=%v err=%v", ver, existed, err)
	}
	val, rver, found, err := nw.Get(3, 9)
	if err != nil || !found || string(val) != "hello" || rver != ver {
		t.Fatalf("get after put: %q v%d found=%v err=%v", val, rver, found, err)
	}

	// Overwrite bumps the version.
	ver2, existed, err := nw.Put(0, 9, []byte("world"))
	if err != nil || !existed || ver2 <= ver {
		t.Fatalf("overwrite: version=%d existed=%v err=%v", ver2, existed, err)
	}

	// Delete leaves the keyspace; a repeat is an idempotent miss; a put
	// re-joins the key fresh.
	if existed, err := nw.Delete(0, 9); err != nil || !existed {
		t.Fatalf("delete: existed=%v err=%v", existed, err)
	}
	if existed, err := nw.Delete(0, 9); err != nil || existed {
		t.Fatalf("second delete: existed=%v err=%v", existed, err)
	}
	if _, existed, err := nw.Put(1, 9, []byte("again")); err != nil || existed {
		t.Fatalf("put after delete: existed=%v err=%v", existed, err)
	}
	if err := nw.Verify(); err != nil {
		t.Fatal(err)
	}

	// KV accesses count as requests and feed the working-set tracker.
	if nw.Stats().Requests == 0 {
		t.Error("KV traffic not reflected in Stats().Requests")
	}
}

func TestNetworkScan(t *testing.T) {
	nw, err := New(16, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{12, 3, 7} {
		if _, _, err := nw.Put(0, k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	kvs, err := nw.Scan(1, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 3 || kvs[0].Key != 3 || kvs[1].Key != 7 || kvs[2].Key != 12 {
		t.Fatalf("scan = %v, want keys [3 7 12]", kvs)
	}
	kvs, err = nw.Scan(1, 4, 1)
	if err != nil || len(kvs) != 1 || kvs[0].Key != 7 {
		t.Fatalf("scan(1,4,1) = %v, %v", kvs, err)
	}
}

func TestNetworkKVErrors(t *testing.T) {
	nw, err := New(8)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := nw.Get(0, 8); err == nil {
		t.Error("get of out-of-range key must fail")
	}
	if _, _, err := nw.Put(-1, 3, nil); err == nil {
		t.Error("put from out-of-range origin must fail")
	}
	if _, err := nw.Delete(0, -1); err == nil {
		t.Error("delete of negative key must fail")
	}
	if _, err := nw.Scan(0, 9, 1); err == nil {
		t.Error("scan start out of range must fail")
	}
	if _, err := nw.Scan(8, 0, 1); err == nil {
		t.Error("scan origin out of range must fail")
	}
}

// TestNetworkServeOps streams a mixed op list through ServeOps:
// results arrive in request order with the right outcomes, and the
// KV stats add up.
func TestNetworkServeOps(t *testing.T) {
	// Each read observes every earlier op.
	nw, err := New(32, WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	ops := []Op{
		PutOp(1, 10, []byte("a")),
		PutOp(2, 20, []byte("b")),
		RouteOp(3, 17),
		GetOp(4, 10),
		GetOp(4, 11), // never written: miss
		ScanOp(7, 0, 32),
		DeleteOp(5, 20),
		GetOp(6, 20), // after the delete: miss
	}
	var results []OpResult
	st, err := nw.ServeOps(context.Background(), feedOps(ops), func(r OpResult) { results = append(results, r) })
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(ops) {
		t.Fatalf("%d results for %d ops", len(results), len(ops))
	}
	for i, r := range results {
		if r.Op.Kind != ops[i].Kind || r.Op.Dst != ops[i].Dst {
			t.Fatalf("result %d is for %+v, want %+v", i, r.Op, ops[i])
		}
	}
	if !results[0].Existed || results[0].Version != 1 {
		t.Errorf("put result: %+v", results[0])
	}
	if !results[3].Found || string(results[3].Value) != "a" {
		t.Errorf("pipelined get of 10: %+v", results[3])
	}
	if results[4].Found {
		t.Errorf("get of unwritten key hit: %+v", results[4])
	}
	if len(results[5].Entries) != 2 {
		t.Errorf("scan saw %d records, want 2", len(results[5].Entries))
	}
	if !results[6].Existed {
		t.Errorf("delete of live key: %+v", results[6])
	}
	if results[7].Found {
		t.Errorf("get after delete hit: %+v", results[7])
	}
	if st.Requests != len(ops) || st.Gets != 3 || st.GetHits != 1 || st.Puts != 2 || st.Deletes != 1 || st.Scans != 1 {
		t.Errorf("stats: %+v", st)
	}
	if st.ScannedEntries != 2 || st.DeleteHits != 1 || st.PutInserts != 0 {
		t.Errorf("KV stat details: %+v", st)
	}
	if err := nw.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedKVRoundTrip exercises the same synchronous surface through the
// shard directory, including cross-shard point ops and boundary-spanning
// scans.
func TestShardedKVRoundTrip(t *testing.T) {
	nw, err := NewSharded(32, WithShards(4), WithSeed(2)) // 8 keys per shard
	if err != nil {
		t.Fatal(err)
	}
	// Cross-shard put: origin in shard 0, key in shard 3.
	if _, existed, err := nw.Put(1, 30, []byte("far")); err != nil || !existed {
		t.Fatalf("cross-shard put: existed=%v err=%v", existed, err)
	}
	val, _, found, err := nw.Get(2, 30)
	if err != nil || !found || string(val) != "far" {
		t.Fatalf("cross-shard get: %q found=%v err=%v", val, found, err)
	}

	// Values on both sides of a shard boundary; the stitched scan spans it.
	if _, _, err := nw.Put(0, 7, []byte("lo")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := nw.Put(0, 8, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	kvs, err := nw.Scan(1, 0, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 3 || kvs[0].Key != 7 || kvs[1].Key != 8 || kvs[2].Key != 30 {
		t.Fatalf("stitched scan = %v, want keys [7 8 30]", kvs)
	}

	if existed, err := nw.Delete(3, 30); err != nil || !existed {
		t.Fatalf("cross-shard delete: existed=%v err=%v", existed, err)
	}
	if _, _, found, _ := nw.Get(2, 30); found {
		t.Error("deleted key still readable")
	}
	if _, _, _, err := nw.Get(0, 99); err == nil {
		t.Error("out-of-range key must fail on the sharded surface too")
	}
}

// TestShardedServeOpsCrossShardScan drives the pipelined sharded surface
// with a KV mix whose scans span shards, and checks the stitched outcomes
// and books.
func TestShardedServeOpsCrossShardScan(t *testing.T) {
	nw, err := NewSharded(32, WithShards(4), WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	var ops []Op
	for k := 0; k < 32; k += 4 {
		ops = append(ops, PutOp((k+1)%32, k, []byte(fmt.Sprintf("v%d", k))))
	}
	ops = append(ops, ScanOp(1, 2, 6)) // spans shards 0..3: keys 4,8,...,24
	ops = append(ops, ScanOp(1, 30, 8))
	var scans [][]KV
	st, err := nw.ServeOps(context.Background(), feedOps(ops), func(r OpResult) {
		if r.Op.Kind == ScanKind {
			scans = append(scans, r.Entries)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(scans) != 2 {
		t.Fatalf("%d scan outcomes, want 2", len(scans))
	}
	if len(scans[0]) != 6 {
		t.Fatalf("spanning scan = %v, want 6 entries", scans[0])
	}
	for i, kv := range scans[0] {
		if want := 4 + 4*i; kv.Key != want || string(kv.Value) != fmt.Sprintf("v%d", want) {
			t.Errorf("scan position %d = (%d, %q), want key %d", i, kv.Key, kv.Value, want)
		}
	}
	if len(scans[1]) != 0 {
		t.Errorf("tail scan past the last record = %v, want empty", scans[1])
	}
	if st.Puts != 8 || st.PutInserts != 0 || st.Scans != 2 || st.ScannedEntries != 6 {
		t.Errorf("sharded KV stats: %+v", st)
	}
	if st.Shards != 4 {
		t.Errorf("stats report %d shards", st.Shards)
	}
}
