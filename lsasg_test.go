package lsasg

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"lsasg/internal/shard"
	"lsasg/internal/workingset"
)

func TestNetworkBasics(t *testing.T) {
	nw, err := New(32, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if nw.N() != 32 || nw.Balance() != 4 {
		t.Fatalf("N=%d balance=%d", nw.N(), nw.Balance())
	}
	res, err := nw.Request(3, 29)
	if err != nil {
		t.Fatal(err)
	}
	if res.WorkingSetNumber != 32 {
		t.Errorf("first request working set = %d, want 32", res.WorkingSetNumber)
	}
	if res.ServiceCost != res.RouteDistance+res.TransformRounds+1 {
		t.Errorf("service cost mismatch: %+v", res)
	}
	if ok, lvl := nw.DirectlyLinked(3, 29); !ok || lvl < 1 {
		t.Errorf("pair not directly linked (lvl=%d)", lvl)
	}
	d, err := nw.Distance(3, 29)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("post-adjust distance = %d, want 0", d)
	}
	res2, err := nw.Request(3, 29)
	if err != nil {
		t.Fatal(err)
	}
	if res2.WorkingSetNumber != 2 {
		t.Errorf("repeat working set = %d, want 2", res2.WorkingSetNumber)
	}
	if err := nw.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestBarrierErrorSurface: the shard layer's barrier failure reaches a
// caller of Do as the public ErrBarrier, with the internal chain intact.
func TestBarrierErrorSurface(t *testing.T) {
	cause := errors.New("migrating 3 keys into shard 1: boom")
	err := wrapErr(fmt.Errorf("%w after the op was served: %w", shard.ErrBarrier, cause))
	if !errors.Is(err, ErrBarrier) || !errors.Is(err, shard.ErrBarrier) || !errors.Is(err, cause) {
		t.Fatalf("wrapErr lost part of the chain: %v", err)
	}
	if errors.Is(err, ErrUnknownKey) || errors.Is(err, ErrDeadNode) {
		t.Fatalf("a barrier failure reads as an op error: %v", err)
	}
}

func TestNetworkErrors(t *testing.T) {
	if _, err := New(1); err == nil {
		t.Error("n=1 should fail")
	}
	nw, _ := New(8, WithSeed(2))
	if _, err := nw.Request(0, 0); err == nil {
		t.Error("self request should fail")
	}
	if _, err := nw.Request(-1, 3); err == nil {
		t.Error("negative index should fail")
	}
	if _, err := nw.Request(3, 8); err == nil {
		t.Error("out-of-range index should fail")
	}
	if _, err := nw.Distance(0, 99); err == nil {
		t.Error("distance to unknown should fail")
	}
	for _, p := range [][2]int{{-1, 3}, {3, 8}} {
		if _, err := nw.WorkingSetNumber(p[0], p[1]); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("WorkingSetNumber(%d, %d) = %v, want ErrOutOfRange", p[0], p[1], err)
		}
	}
	// A request to an index that left or crashed keeps its sentinel.
	if _, err := nw.Delete(0, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Request(1, 5); !errors.Is(err, ErrUnknownKey) {
		t.Errorf("request to a removed index = %v, want ErrUnknownKey", err)
	}
	if err := nw.Crash(6); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Request(1, 6); !errors.Is(err, ErrDeadNode) {
		t.Errorf("request to a crashed index = %v, want ErrDeadNode", err)
	}
	// Both misses count, as they do when ServeOps serves them.
	if got := nw.Stats().Requests; got != 3 {
		t.Errorf("%d requests counted, want the delete and the two missed routes", got)
	}
}

func TestNetworkStats(t *testing.T) {
	nw, _ := New(16, WithSeed(3))
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 60; i++ {
		u, v := rng.Intn(16), rng.Intn(16)
		if u == v {
			continue
		}
		if _, err := nw.Request(u, v); err != nil {
			t.Fatal(err)
		}
		if err := nw.Verify(); err != nil {
			t.Fatalf("after request %d (%d,%d): %v", i, u, v, err)
		}
	}
	s := nw.Stats()
	if s.Requests == 0 || s.MeanRouteDistance < 0 || s.Height < 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.WorkingSetBound <= 0 {
		t.Fatal("working-set bound not accumulated")
	}
	if s.TotalTransformRounds <= 0 {
		t.Fatal("no transformation rounds recorded")
	}
}

// TestAddRemoveGrowsWorkingSet: membership runs beside the working-set
// bookkeeping at every shard count. AddNode returns the old N(), a first-time
// pair with the new node has T = the new N(), the new key serves a put and a
// route, and WS(σ) keeps counting across the join and a leave — equal to an
// independent workingset.Bound fed the same accesses and grown at the same
// point.
func TestAddRemoveGrowsWorkingSet(t *testing.T) {
	const n = 16
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("s=%d", shards), func(t *testing.T) {
			nw, err := New(n, WithSeed(6), WithShards(shards))
			if err != nil {
				t.Fatal(err)
			}
			ref := workingset.NewBound(n)
			route := func(src, dst int) {
				t.Helper()
				res, err := nw.Request(src, dst)
				if err != nil {
					t.Fatalf("request %d→%d: %v", src, dst, err)
				}
				if want := ref.Add(src, dst); res.WorkingSetNumber != want {
					t.Fatalf("request %d→%d: T = %d, reference %d", src, dst, res.WorkingSetNumber, want)
				}
			}
			route(0, 5)
			route(5, 9)
			route(0, 5)

			idx, err := nw.AddNode()
			if err != nil || idx != n || nw.N() != n+1 {
				t.Fatalf("AddNode = %d, %v with N() = %d; want %d, nil, %d", idx, err, nw.N(), n, n+1)
			}
			ref.Tracker().Grow()
			if got, err := nw.WorkingSetNumber(idx, 3); err != nil || got != n+1 {
				t.Fatalf("T(new, 3) = %d, %v; want the new N() = %d", got, err, n+1)
			}
			if _, _, err := nw.Put(0, idx, []byte("joined")); err != nil {
				t.Fatalf("put to the joined node: %v", err)
			}
			ref.Add(0, idx)
			route(idx, 9)
			route(0, idx)

			if err := nw.RemoveNode(5); err != nil {
				t.Fatalf("RemoveNode(5): %v", err)
			}
			route(9, idx)
			route(0, 9)
			if got, want := nw.Stats().WorkingSetBound, ref.Total(); got != want {
				t.Fatalf("WorkingSetBound = %v, reference %v", got, want)
			}
			if err := nw.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRenderTopology(t *testing.T) {
	nw, _ := New(8, WithSeed(7))
	var sb strings.Builder
	nw.RenderTopology(&sb)
	out := sb.String()
	if !strings.HasPrefix(out, "L0: 0 1 2 3 4 5 6 7") {
		t.Fatalf("unexpected topology render:\n%s", out)
	}
	if !strings.Contains(out, "L1:") {
		t.Fatal("missing level 1")
	}
}

func TestBalanceOption(t *testing.T) {
	nw, _ := New(16, WithSeed(8), WithBalance(2))
	if nw.Balance() != 2 {
		t.Fatalf("balance = %d", nw.Balance())
	}
	for i := 1; i < 16; i++ {
		if _, err := nw.Request(0, i); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSelfAdjustmentBeatsStaticOnSkew is the package-level headline check:
// repeated traffic between a small hot set becomes much cheaper than the
// uniform baseline cost.
func TestSelfAdjustmentBeatsStaticOnSkew(t *testing.T) {
	nw, _ := New(64, WithSeed(9))
	rng := rand.New(rand.NewSource(10))
	hot := []int{3, 17, 42}
	// Warm-up: serve hot pairs.
	for i := 0; i < 30; i++ {
		u, v := hot[rng.Intn(3)], hot[rng.Intn(3)]
		if u == v {
			continue
		}
		if _, err := nw.Request(u, v); err != nil {
			t.Fatal(err)
		}
	}
	// After warm-up every hot pair should be within a couple of hops.
	for _, u := range hot {
		for _, v := range hot {
			if u == v {
				continue
			}
			d, err := nw.Distance(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if d > 3 {
				t.Errorf("hot pair (%d,%d) distance %d after warm-up", u, v, d)
			}
		}
	}
}
