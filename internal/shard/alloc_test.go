package shard

import (
	"context"
	"runtime"
	"testing"

	"lsasg/internal/core"
)

// TestScanWindowAllocBudget pins what a window costs beyond the work in it:
// a scan served at S = 1 — one window per op, as the daemon serves it —
// allocates the entry it reads in the route half (one allocation, 48 B) and
// nothing else: the window's own plumbing — leg slices, result slots, load
// window — is reused from window to window, and a one-shard scan's outcome
// adopts its only fragment. With a goroutine, a channel and a fragment map
// per shard per window, and a fresh n-sized load slice, the same scan cost
// 16 allocations and 3.8 KB.
func TestScanWindowAllocBudget(t *testing.T) {
	const (
		n, warm, measured = 256, 200, 2000
		maxAllocsPerOp    = 2
		maxBytesPerOp     = 128
	)
	var before, after runtime.MemStats
	served := 0
	svc, err := New(n, Config{Shards: 1, A: 4, Seed: 1, RebalanceEvery: 1,
		OnOutcome: func(o Outcome) {
			if o.Op.Kind != core.OpScan {
				return // the preload
			}
			switch served++; served {
			case warm:
				runtime.GC()
				runtime.ReadMemStats(&before)
			case warm + measured:
				runtime.ReadMemStats(&after)
			}
			if len(o.Entries) != 1 {
				t.Errorf("scan %d from %d read %d entries, want 1", served, o.Op.Dst, len(o.Entries))
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < n; k += 2 {
		if _, err := svc.Apply(core.Op{Kind: core.OpPut, Src: (k + 1) % n, Dst: k, Value: []byte{byte(k)}}); err != nil {
			t.Fatal(err)
		}
	}
	ops := make([]core.Op, warm+measured)
	for i := range ops {
		ops[i] = core.Op{Kind: core.OpScan, Src: int64(i % n), Dst: int64(i * 7 % (n - 8)), Limit: 1}
	}
	if _, err := svc.Serve(context.Background(), feedOps(ops)); err != nil {
		t.Fatal(err)
	}
	allocs := float64(after.Mallocs-before.Mallocs) / measured
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / measured
	t.Logf("%.2f allocs/op, %.0f B/op over %d one-scan windows", allocs, bytes, measured)
	if allocs > maxAllocsPerOp {
		t.Errorf("%.2f allocs per one-scan window, budget %d", allocs, maxAllocsPerOp)
	}
	if bytes > maxBytesPerOp {
		t.Errorf("%.0f bytes per one-scan window, budget %d", bytes, maxBytesPerOp)
	}
}
