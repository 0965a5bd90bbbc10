package serve

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"lsasg/internal/core"
)

// This file is the immutability property test for structurally shared
// snapshots: an epoch, once published, must answer every route byte-
// identically forever, no matter how much churn (joins, leaves, crashes,
// repairs) later publishes write through the shared structure. Run under
// -race in CI (the race job's serve step), this also proves the publisher
// never writes into trie or node versions reachable from an old epoch.

// snapshotFingerprint routes every pair in the snapshot and flattens paths,
// level drops, and error texts into one comparable string.
func snapshotFingerprint(s *Snapshot, pairs [][2]int64) string {
	var b strings.Builder
	for _, p := range pairs {
		r, err := s.Route(p[0], p[1])
		fmt.Fprintf(&b, "%d->%d:", p[0], p[1])
		for _, n := range r.Path {
			fmt.Fprintf(&b, "%d,", n.ID())
		}
		fmt.Fprintf(&b, "drops=%d", r.LevelDrops)
		if err != nil {
			fmt.Fprintf(&b, " err=%v", err)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestSnapshotImmutableUnderChurn publishes an epoch, then drives a full
// churn+crash+repair trace through the pipeline — Put-joins, Delete-leaves
// and routes in parallel-routed Serve batches, crash injections and
// Put-repairs between them — while a concurrent reader keeps
// re-fingerprinting the OLD epoch. The old epoch's answers must never
// change — not at the end, and not at any point in between.
func TestSnapshotImmutableUnderChurn(t *testing.T) {
	d := core.New(64, core.Config{A: 4, Seed: 29})
	e := New(d, Config{Parallelism: 4, BatchSize: 8, TolerateAdjustMiss: true})

	// Deterministic probe pairs spanning the initial id range, including ids
	// that the churn below will remove or crash.
	var pairs [][2]int64
	for i := int64(0); i < 64; i += 5 {
		pairs = append(pairs, [2]int64{i, 63 - i})
		pairs = append(pairs, [2]int64{(i * 7) % 64, (i*11 + 3) % 64})
	}

	snap0 := e.Snapshot()
	want := snapshotFingerprint(snap0, pairs)

	var (
		mismatch atomic.Bool
		stop     = make(chan struct{})
		wg       sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if snapshotFingerprint(snap0, pairs) != want {
					mismatch.Store(true)
					return
				}
			}
		}
	}()

	serve := func(ops ...core.Op) {
		t.Helper()
		if _, err := e.Serve(context.Background(), feedOps(ops)); err != nil {
			t.Fatal(err)
		}
	}
	// Churn: joins of fresh ids, leaves of initial ids (each at most once,
	// never one that crashes), crashes of a disjoint subset, plus routes —
	// some into the corpse, recorded as tolerated misses. Every Serve batch
	// and every idle entry point publishes, so the live epoch advances far
	// past snap0.
	nextJoin := int64(1000)
	for round := int64(0); round < 8; round++ {
		var batch []core.Op
		for i := 0; i < 4; i++ {
			batch = append(batch, core.Op{Kind: core.OpPut, Src: 1, Dst: nextJoin, Value: []byte("v")})
			nextJoin++
		}
		batch = append(batch,
			core.Op{Kind: core.OpDelete, Src: 1, Dst: round * 3}, // ids 0,3,...,21: leave exactly once
			core.RouteOp(1, 62), core.RouteOp(2, 61), core.RouteOp(50, nextJoin-1))
		serve(batch...)
		victim := 40 + round // ids 40..47: crash, disjoint from leaves
		if err := e.ApplyCrashIdle(victim); err != nil {
			t.Fatal(err)
		}
		serve(core.RouteOp(2, victim), core.RouteOp(victim, 1), core.RouteOp(1, 62),
			core.Op{Kind: core.OpGet, Src: 2, Dst: victim})
		if _, err := e.ApplyOpIdle(core.Op{Kind: core.OpPut, Src: 2, Dst: victim, Value: []byte("r")}); err != nil {
			t.Fatalf("put-repair of %d: %v", victim, err)
		}
	}
	close(stop)
	wg.Wait()

	if mismatch.Load() {
		t.Fatal("old epoch's routes changed while churn was in flight")
	}
	if got := snapshotFingerprint(snap0, pairs); got != want {
		t.Fatalf("old epoch diverged after churn:\nbefore:\n%s\nafter:\n%s", want, got)
	}
	if live := e.Snapshot(); live.Epoch < snap0.Epoch+32 {
		t.Fatalf("churn advanced the epoch %d→%d; want ≥ 32 publications", snap0.Epoch, live.Epoch)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("live DSG invalid after churn: %v", err)
	}
}
