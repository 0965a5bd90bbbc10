package core

import (
	"runtime"
	"testing"

	"lsasg/internal/workload"
)

// TestAdjustAllocBudget pins the adjuster's steady-state allocation: with
// the scratch arena warm, an adjustment allocates only the dummies it
// creates — one record each, holding the node, its state and, for all but
// the deepest, its group-ids and links — nothing per member, per list or per
// scanned window. The budget is twice what the adjuster achieves (145
// allocs, 40 KB per op at n = 256, Zipf 1.2; 363 allocs, 33 KB while a
// node's state sat in a map beside it and a dummy took four allocations;
// 1 580 allocs, 139 KB while the scoped repair still rebuilt the region
// behind the transformation; 39 400 allocs, 2.16 MB before the arena), so it
// trips on a reintroduced per-request map or slice, or on a balance pass
// that starts cascading again, long before the old numbers return, yet never
// on noise: the counts are deterministic for a fixed seed (the race detector
// adds a quarter to the allocations and half again to the bytes).
func TestAdjustAllocBudget(t *testing.T) {
	const (
		n, warm, measured = 256, 1000, 500
		maxAllocsPerOp    = 290
		maxBytesPerOp     = 79220
	)
	d := New(n, Config{A: 4, Seed: 1})
	reqs := workload.Zipf{Seed: 3, S: 1.2}.Generate(n, warm+measured)
	adjust := func(rs []workload.Request) {
		for _, r := range rs {
			if _, err := d.Adjust(int64(r.Src), int64(r.Dst)); err != nil {
				t.Fatal(err)
			}
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
