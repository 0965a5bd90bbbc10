package core

import (
	"runtime"
	"testing"

	"lsasg/internal/workload"
)

// TestAdjustAllocBudget pins the adjuster's steady-state allocation: with
// the scratch arena warm, an adjustment allocates only the dummies it
// creates (node, links, state, group-ids), nothing per member, per list or
// per scanned window. The budget is twice what the adjuster achieves (789
// allocs, 74 KB per op at n = 256, Zipf 1.2 — ≈ 175 dummies, 143 of them
// the transformation's own breakers; 1 580 allocs, 139 KB while the scoped
// repair still rebuilt the region behind the transformation; 39 400 allocs,
// 2.16 MB before the arena), so it trips on a reintroduced per-request map
// or slice, or on a balance pass that starts cascading again, long before
// the old numbers return, yet never on noise: the counts are deterministic
// for a fixed seed (the race detector adds a few percent).
func TestAdjustAllocBudget(t *testing.T) {
	const (
		n, warm, measured = 256, 1000, 500
		maxAllocsPerOp    = 1578
		maxBytesPerOp     = 147 << 10
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
