package core

import (
	"bytes"
	"errors"
	"testing"

	"lsasg/internal/skipgraph"
	"lsasg/internal/workload"
)

// Directed tests for the op envelope (op.go): the totality contract of the
// KV ops, the version clock, and the interplay with crash repair. The
// randomized coverage lives in kv_fuzz_test.go; these pin each documented
// branch explicitly.

func TestApplyOpRouteMatchesAdjust(t *testing.T) {
	d := New(8, Config{A: 4, Seed: 1})
	res, err := d.ApplyOp(RouteOp(0, 5))
	if err != nil {
		t.Fatal(err)
	}
	if res.HeightAfter < 1 {
		t.Errorf("route 0→5 reported height %d", res.HeightAfter)
	}
	if _, err := d.ApplyOp(RouteOp(3, 3)); err == nil {
		t.Error("self-route must fail")
	}
	if _, err := d.ApplyOp(Op{Kind: OpKind(99)}); err == nil {
		t.Error("unknown op kind must fail")
	}
	// A route to a removed node is the op's miss, carrying the sentinel
	// the public API maps to ErrUnknownKey, and adjusts nothing.
	if err := d.RemoveNode(6); err != nil {
		t.Fatal(err)
	}
	clock := d.Clock()
	res, err = d.ApplyOp(RouteOp(0, 6))
	if err != nil || !errors.Is(res.Miss, skipgraph.ErrUnknownKey) || res.TransformRounds != 0 || d.Clock() != clock {
		t.Errorf("route to a removed node = %+v, %v; want a miss carrying ErrUnknownKey that adjusts nothing", res, err)
	}
}

func TestApplyOpGetHitAndMiss(t *testing.T) {
	d := New(8, Config{A: 4, Seed: 1})

	// Every key starts valueless: a Get is a miss, yet the access still
	// adjusts the topology (totality: no error).
	res, err := d.ApplyOp(Op{Kind: OpGet, Src: 0, Dst: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Error("get of a never-written key must miss")
	}

	if _, err := d.ApplyOp(Op{Kind: OpPut, Src: 0, Dst: 5, Value: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	res, err = d.ApplyOp(Op{Kind: OpGet, Src: 1, Dst: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || !bytes.Equal(res.Value, []byte("x")) || res.Version != 1 {
		t.Errorf("get after put: found=%v value=%q version=%d", res.Found, res.Value, res.Version)
	}

	// Crash-stop: the record becomes unreadable the moment the key crashes.
	if err := d.Crash(5); err != nil {
		t.Fatal(err)
	}
	res, err = d.ApplyOp(Op{Kind: OpGet, Src: 1, Dst: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Error("get of a crashed key must miss")
	}
	// The tolerant adjust skipped the dead endpoint: no transformation ran.
	if res.TransformRounds != 0 {
		t.Errorf("get of a crashed key ran %d transform rounds", res.TransformRounds)
	}
}

func TestApplyPutUpdateJoinAndRepair(t *testing.T) {
	d := New(8, Config{A: 4, Seed: 1})

	// Update in place: the key is alive, versions are the global clock.
	r1, err := d.ApplyOp(Op{Kind: OpPut, Src: 0, Dst: 3, Value: []byte("a")})
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Existed || r1.Version != 1 {
		t.Errorf("put on live key: existed=%v version=%d", r1.Existed, r1.Version)
	}
	r2, err := d.ApplyOp(Op{Kind: OpPut, Src: 0, Dst: 3, Value: []byte("b")})
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Existed || r2.Version != 2 {
		t.Errorf("second put: existed=%v version=%d", r2.Existed, r2.Version)
	}

	// Tracked join: put of an absent key adds it.
	if err := d.RemoveNode(6); err != nil {
		t.Fatal(err)
	}
	r3, err := d.ApplyOp(Op{Kind: OpPut, Src: 0, Dst: 6, Value: []byte("c")})
	if err != nil {
		t.Fatal(err)
	}
	if r3.Existed || r3.Version != 3 {
		t.Errorf("put join: existed=%v version=%d", r3.Existed, r3.Version)
	}
	if n := d.NodeByID(6); n == nil || n.Dead() {
		t.Fatal("put join did not re-add key 6")
	}

	// Crash-repair + rejoin: put of a dead key splices the corpse, loses the
	// old record (crash-stop), and joins fresh with the new value.
	if err := d.Crash(3); err != nil {
		t.Fatal(err)
	}
	r4, err := d.ApplyOp(Op{Kind: OpPut, Src: 0, Dst: 3, Value: []byte("d")})
	if err != nil {
		t.Fatal(err)
	}
	if r4.Existed || r4.Version != 4 {
		t.Errorf("put on crashed key: existed=%v version=%d", r4.Existed, r4.Version)
	}
	if _, _, rep := d.CrashStats(); rep != 1 || len(d.CrashedIDs()) != 0 {
		t.Errorf("after put-repair: %d crash repairs, corpses %v; want 1 and none", rep, d.CrashedIDs())
	}
	g, err := d.ApplyOp(Op{Kind: OpGet, Src: 0, Dst: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !g.Found || !bytes.Equal(g.Value, []byte("d")) {
		t.Errorf("read after repair-rejoin: found=%v value=%q", g.Found, g.Value)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyDeleteLeaveMissAndCrashRepair(t *testing.T) {
	d := New(8, Config{A: 4, Seed: 1})
	if _, err := d.ApplyOp(Op{Kind: OpPut, Src: 0, Dst: 4, Value: []byte("v")}); err != nil {
		t.Fatal(err)
	}

	// Tracked leave.
	r, err := d.ApplyOp(Op{Kind: OpDelete, Src: 0, Dst: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Existed || d.NodeByID(4) != nil {
		t.Errorf("delete of live key: existed=%v node=%v", r.Existed, d.NodeByID(4))
	}

	// Idempotent miss.
	r, err = d.ApplyOp(Op{Kind: OpDelete, Src: 0, Dst: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.Existed {
		t.Error("delete of absent key must report existed=false")
	}

	// Delete of a dead key is the crash-repair splice.
	if err := d.Crash(7); err != nil {
		t.Fatal(err)
	}
	r, err = d.ApplyOp(Op{Kind: OpDelete, Src: 0, Dst: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Existed || d.NodeByID(7) != nil {
		t.Errorf("delete of crashed key: existed=%v node=%v", r.Existed, d.NodeByID(7))
	}
	if _, _, rep := d.CrashStats(); rep != 1 || len(d.CrashedIDs()) != 0 {
		t.Errorf("after delete-repair: %d crash repairs, corpses %v; want 1 and none", rep, d.CrashedIDs())
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestDeletedThenCrashedNoResurrect pins the resurrection guard: once a key
// is deleted — whether it was alive or already a corpse at delete time — a
// late RepairCrashedID of that id must decline and the key must stay gone.
func TestDeletedThenCrashedNoResurrect(t *testing.T) {
	d := New(8, Config{A: 4, Seed: 1})
	if _, err := d.ApplyOp(Op{Kind: OpPut, Src: 0, Dst: 5, Value: []byte("doomed")}); err != nil {
		t.Fatal(err)
	}

	// Crash first, then delete: applyDelete takes the repair path.
	if err := d.Crash(5); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ApplyOp(Op{Kind: OpDelete, Src: 0, Dst: 5}); err != nil {
		t.Fatal(err)
	}
	if d.RepairCrashedID(5) {
		t.Error("repair of a deleted key must decline")
	}
	if d.NodeByID(5) != nil {
		t.Fatal("deleted-then-repaired key resurrected")
	}

	// Delete while alive, then probe the id: same guarantee.
	if _, err := d.ApplyOp(Op{Kind: OpDelete, Src: 0, Dst: 2}); err != nil {
		t.Fatal(err)
	}
	if d.RepairCrashedID(2) {
		t.Error("repair of a departed key must decline")
	}
	if d.NodeByID(2) != nil {
		t.Fatal("departed key resurrected by a stale repair")
	}

	// Neither key reappears in a full scan, and the graph stays valid.
	for _, e := range d.Graph().ScanFrom(skipgraph.KeyOf(0), 16) {
		if e.ID == 5 || e.ID == 2 {
			t.Errorf("deleted key %d visible in scan", e.ID)
		}
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyOpScanReadsSortedLiveRecords(t *testing.T) {
	d := New(8, Config{A: 4, Seed: 1})
	for _, k := range []int64{6, 1, 4} {
		if _, err := d.ApplyOp(Op{Kind: OpPut, Src: 0, Dst: k, Value: []byte{byte(k)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Crash(4); err != nil {
		t.Fatal(err)
	}

	res, err := d.ApplyOp(Op{Kind: OpScan, Dst: 0, Limit: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 2 || res.Entries[0].ID != 1 || res.Entries[1].ID != 6 {
		t.Fatalf("scan = %v, want keys [1 6] (crashed 4 skipped, valueless skipped)", res.Entries)
	}

	// Limit truncation and start offset; Limit ≤ 0 is clamped to 1.
	res, _ = d.ApplyOp(Op{Kind: OpScan, Dst: 2, Limit: 1})
	if len(res.Entries) != 1 || res.Entries[0].ID != 6 {
		t.Fatalf("scan from 2 limit 1 = %v, want [6]", res.Entries)
	}
	res, _ = d.ApplyOp(Op{Kind: OpScan, Dst: 0, Limit: 0})
	if len(res.Entries) != 1 {
		t.Fatalf("scan with limit 0 must clamp to 1, got %v", res.Entries)
	}
}

func TestRestorePreservesVersionAndClock(t *testing.T) {
	d := New(8, Config{A: 4, Seed: 1})
	if err := d.RemoveNode(3); err != nil {
		t.Fatal(err)
	}
	if err := d.RemoveNode(5); err != nil {
		t.Fatal(err)
	}

	// A migrated record re-joins with its donor-side version intact, and the
	// clock advances past it so later writes stay monotonic.
	if err := d.Restore(skipgraph.Entry{ID: 3, Value: []byte("moved"), Version: 41, HasValue: true}); err != nil {
		t.Fatal(err)
	}
	if got := d.KVVersion(); got != 41 {
		t.Errorf("clock after restore = %d, want 41", got)
	}
	g, err := d.ApplyOp(Op{Kind: OpGet, Src: 0, Dst: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !g.Found || !bytes.Equal(g.Value, []byte("moved")) || g.Version != 41 {
		t.Errorf("restored read: found=%v value=%q version=%d", g.Found, g.Value, g.Version)
	}

	// A valueless migrated key restores as a bare member.
	if err := d.Restore(skipgraph.Entry{ID: 5}); err != nil {
		t.Fatal(err)
	}
	if n := d.NodeByID(5); n == nil {
		t.Fatal("valueless restore did not re-add the key")
	}
	if res, _ := d.ApplyOp(Op{Kind: OpGet, Src: 0, Dst: 5}); res.Found {
		t.Error("valueless restore must not invent a record")
	}

	// Next write continues past the restored version.
	w, err := d.ApplyOp(Op{Kind: OpPut, Src: 0, Dst: 1, Value: []byte("z")})
	if err != nil {
		t.Fatal(err)
	}
	if w.Version != 42 {
		t.Errorf("write after restore got version %d, want 42", w.Version)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestAdjustReportsLAlpha: an adjustment reports the list it rebuilt — l_alpha
// as it stood, dummies counted apart.
func TestAdjustReportsLAlpha(t *testing.T) {
	d := New(128, Config{A: 4, Seed: 1})
	for _, r := range (workload.Zipf{Seed: 5, S: 1.2}).Generate(128, 300) {
		u, v := d.NodeByID(int64(r.Src)), d.NodeByID(int64(r.Dst))
		alpha := skipgraph.CommonPrefixLen(u, v)
		size, dummies := 0, 0
		for x := u.ListHead(alpha); x != nil; x = x.Next(alpha) {
			size++
			if x.IsDummy() {
				dummies++
			}
		}
		res := d.AdjustAccess(RouteOp(int64(r.Src), int64(r.Dst)))
		if res.LAlpha != size || res.LAlphaDummies != dummies {
			t.Fatalf("reported l_alpha %d (%d dummies), the list held %d (%d)", res.LAlpha, res.LAlphaDummies, size, dummies)
		}
	}
}

// TestAccessRepairsCrashedIntermediate: the step's route half repairs a
// crashed intermediate its route contacts and routes again, so every kind
// that routes is served with a measured path across where the corpse was —
// exactly what a twin that had the corpse repaired beforehand serves — and
// the detection and repair are counted once.
func TestAccessRepairsCrashedIntermediate(t *testing.T) {
	const n, src, dst = 32, 0, 31
	probe := New(n, Config{A: 4, Seed: 3})
	rt, err := probe.Graph().RouteKeys(skipgraph.KeyOf(src), skipgraph.KeyOf(dst))
	if err != nil || len(rt.Path) < 3 {
		t.Fatalf("route %d→%d = %d nodes, %v; want an intermediate", src, dst, len(rt.Path), err)
	}
	corpse := rt.Path[1].ID()
	for _, op := range []Op{
		RouteOp(src, dst),
		{Kind: OpGet, Src: src, Dst: dst},
		{Kind: OpPut, Src: src, Dst: dst, Value: []byte("v")},
		{Kind: OpDelete, Src: src, Dst: dst},
	} {
		d, twin := New(n, Config{A: 4, Seed: 3}), New(n, Config{A: 4, Seed: 3})
		for _, g := range []*DSG{d, twin} {
			if err := g.Crash(corpse); err != nil {
				t.Fatal(err)
			}
		}
		twin.RepairCrashedID(corpse)
		got, err := d.ApplyOp(op)
		if err != nil || got.Miss != nil {
			t.Fatalf("%s across crashed %d = %+v, %v; want it served", op.Kind, corpse, got, err)
		}
		want, err := twin.ApplyOp(op)
		if err != nil {
			t.Fatal(err)
		}
		if got.RouteDistance != want.RouteDistance || got.RouteHops == 0 || got.AdjustResult != want.AdjustResult {
			t.Errorf("%s across crashed %d = %+v, want the repaired twin's %+v", op.Kind, corpse, got, want)
		}
		if _, det, rep := d.CrashStats(); det != 1 || rep != 1 || len(d.CrashedIDs()) != 0 {
			t.Errorf("%s: detections %d, repairs %d, corpses %v; want 1, 1, none", op.Kind, det, rep, d.CrashedIDs())
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("%s: %v", op.Kind, err)
		}
	}
}
