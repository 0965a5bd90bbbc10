package core

import (
	"math/rand"
	"strings"
	"testing"

	"lsasg/internal/skipgraph"
)

// TestRepairBalanceConverges builds random topologies (whose independent
// membership bits carry no balance guarantee) across sizes, balance
// parameters, and seeds, and requires the constructor's global repair to
// leave a clean validator.
func TestRepairBalanceConverges(t *testing.T) {
	for _, a := range []int{2, 3, 4} {
		for _, n := range []int{5, 32, 200} {
			for seed := int64(0); seed < 5; seed++ {
				if err := New(n, Config{A: a, Seed: seed}).Validate(); err != nil {
					t.Errorf("a=%d n=%d seed=%d: %v", a, n, seed, err)
				}
			}
		}
	}
}

// TestRepairBalanceIdempotent requires a second repair right after a first
// (New's) to be a no-op.
func TestRepairBalanceIdempotent(t *testing.T) {
	d := New(64, Config{A: 2, Seed: 9})
	if ins, rem := d.RepairBalance(); ins != 0 || rem != 0 {
		t.Errorf("second repair did work: inserted %d, removed %d", ins, rem)
	}
}

// TestValidateAfterTraffic runs plain request traffic and requires the
// validator to stay clean after each request.
func TestValidateAfterTraffic(t *testing.T) {
	d := New(48, Config{A: 2, Seed: 5})
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 150; i++ {
		u, v := int64(rng.Intn(48)), int64(rng.Intn(48))
		if u == v {
			continue
		}
		if _, err := d.Serve(u, v); err != nil {
			t.Fatal(err)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
}

// TestBreakRunRespreadsFullGap hands breakRun a gap with no free key — two
// dummies on adjacent minors, which is where ~30 bisecting placements beside
// one real node end up — and requires a breaker strictly between the two
// all the same: the dummies under that primary are relabelled, the structure
// is the one it was, and the breaker sits where the run had to be broken.
func TestBreakRunRespreadsFullGap(t *testing.T) {
	d := New(16, Config{A: 2, Seed: 3})
	n3 := d.NodeByID(3)
	var packed []*skipgraph.Node
	for _, minor := range []int32{1, 2, 3} {
		dm := newDummy(skipgraph.Key{Primary: 3, Minor: minor}, d.nextDummyID, 1)
		d.nextDummyID++
		dm.SetBit(1, n3.Bit(1))
		d.g.SpliceIn(dm)
		d.dummyCount++
		packed = append(packed, dm)
	}
	left, right := packed[0], packed[1]
	if _, ok := d.staticFreeKey(left.Key(), right.Key()); ok {
		t.Fatalf("the gap %v..%v should be full", left.Key(), right.Key())
	}
	viol := skipgraph.BalanceViolation{Level: 0, Start: n3, RunLen: 4, Bit: n3.Bit(1)}
	dm := d.breakRun(left, right, viol)
	if !left.Key().Less(dm.Key()) || !dm.Key().Less(right.Key()) {
		t.Fatalf("breaker keyed %v, want strictly between %v and %v", dm.Key(), left.Key(), right.Key())
	}
	if dm.Prev(0) != left || dm.Next(0) != right || dm.Bit(1) != 1-viol.Bit {
		t.Fatalf("breaker %v is not the opposite-bit node between %v and %v", dm, left, right)
	}
	if err := d.g.Verify(); err != nil {
		t.Fatalf("structure after the respread and the splice: %v", err)
	}
	if states := stateCount(d); states != d.g.N() || d.dummyCount != d.g.N()-d.g.RealN() {
		t.Fatalf("bookkeeping: %d states for %d nodes, %d dummies counted", states, d.g.N(), d.dummyCount)
	}
}

// TestValidateDetectsCorruption drives the validator over hand-corrupted
// states: each case must be caught with the right error class.
func TestValidateDetectsCorruption(t *testing.T) {
	fresh := func() *DSG {
		d := New(16, Config{A: 4, Seed: 1})
		if err := d.Validate(); err != nil {
			t.Fatalf("baseline not clean: %v", err)
		}
		return d
	}

	t.Run("dummy bookkeeping", func(t *testing.T) {
		d := fresh()
		d.dummyCount += 3
		if err := d.Validate(); err == nil || !strings.Contains(err.Error(), "dummies") {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("missing state", func(t *testing.T) {
		d := fresh()
		d.NodeByID(7).Ext = nil
		if err := d.Validate(); err == nil || !strings.Contains(err.Error(), "state") {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("timestamp below base", func(t *testing.T) {
		d := fresh()
		s := d.state(d.NodeByID(3))
		s.B = 2
		s.ensure(2)
		s.T[0] = 99
		if err := d.Validate(); err == nil || !strings.Contains(err.Error(), "below base") {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("balance violation", func(t *testing.T) {
		// Keys 0, 1, 2 all take bit 1 = 0: a run of 3, fine at a = 4 and a
		// violation once the parameter is tightened to 2.
		g := skipgraph.NewFromVectors([]skipgraph.VectorEntry{
			{Key: 0, ID: 0, Vector: "000"},
			{Key: 1, ID: 1, Vector: "001"},
			{Key: 2, ID: 2, Vector: "01"},
			{Key: 3, ID: 3, Vector: "10"},
			{Key: 4, ID: 4, Vector: "11"},
		})
		d := NewFromGraph(g, Config{A: 4, Seed: 1})
		d.cfg.A = 2
		if err := d.Validate(); err == nil || !strings.Contains(err.Error(), "balance") {
			t.Errorf("err = %v", err)
		}
		d.RepairBalance()
		if err := d.Validate(); err != nil {
			t.Errorf("after repair: %v", err)
		}
	})
	t.Run("shallow state arrays", func(t *testing.T) {
		d := fresh()
		s := d.state(d.NodeByID(5))
		s.G = s.G[:1]
		if err := d.Validate(); err == nil || !strings.Contains(err.Error(), "exceeds group state") {
			t.Errorf("err = %v", err)
		}
	})
}
