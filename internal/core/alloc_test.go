package core

import (
	"runtime"
	"testing"

	"lsasg/internal/workload"
)

// TestAdjustAllocBudget pins the adjuster's steady-state allocation: with
// the scratch arena warm and the free list of dummy records stocked, an
// adjustment allocates nothing at all — every dummy it creates reuses the
// record, and the link and group-id storage, of one an earlier operation
// retired; nothing is allocated per member, per list or per scanned window.
// It achieves 0 allocs and 72 B per op at n = 256, Zipf 1.2 (the bytes are
// scratch growth, amortized), and the budget leaves a margin above that:
// 145 allocs and 40 KB while each dummy took a fresh record (and a deep one
// fresh links and group-ids too), 363 allocs and 33 KB while a node's state
// sat in a map beside it, 1 580 allocs and 139 KB while the scoped repair
// still rebuilt the region behind the transformation, 39 400 allocs and
// 2.16 MB before the arena. So it trips on a reintroduced per-request map or
// slice, on dummies no longer recycled, or on a balance pass that starts
// cascading again, yet never on noise: the counts are deterministic for a
// fixed seed. The race detector's instrumentation allocates on its own
// account (40 allocs and 22.8 KB per op), so under it the budget is that
// plus the same kind of margin.
func TestAdjustAllocBudget(t *testing.T) {
	const n, warm, measured = 256, 1000, 500
	maxAllocsPerOp, maxBytesPerOp := uint64(4), uint64(1024)
	if raceDetector {
		maxAllocsPerOp, maxBytesPerOp = 60, 34_000
	}
	d := New(n, Config{A: 4, Seed: 1})
	reqs := workload.Zipf{Seed: 3, S: 1.2}.Generate(n, warm+measured)
	adjust := func(rs []workload.Request) {
		for _, r := range rs {
			d.AdjustAccess(RouteOp(int64(r.Src), int64(r.Dst)))
		}
	}
	adjust(reqs[:warm])
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	adjust(reqs[warm:])
	runtime.ReadMemStats(&after)
	allocs := (after.Mallocs - before.Mallocs) / measured
	bytes := (after.TotalAlloc - before.TotalAlloc) / measured
	t.Logf("%d allocs/op, %d B/op over %d adjustments", allocs, bytes, measured)
	if allocs > maxAllocsPerOp {
		t.Errorf("%d allocs per adjustment, budget %d", allocs, maxAllocsPerOp)
	}
	if bytes > maxBytesPerOp {
		t.Errorf("%d bytes per adjustment, budget %d", bytes, maxBytesPerOp)
	}
}
