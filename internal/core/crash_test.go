package core

import (
	"errors"
	"testing"

	"lsasg/internal/testkit"
)

// TestCrashEndpointErrors covers the error paths a crashed-but-unrepaired
// node forces: every protocol that would need the corpse to participate
// reports ErrCrashedNode instead of operating on it.
func TestCrashEndpointErrors(t *testing.T) {
	d := New(16, Config{A: 4, Seed: 1})
	if err := d.Crash(99); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("crash of unknown id: %v, want ErrUnknownNode", err)
	}
	if err := d.Crash(5); err != nil {
		t.Fatal(err)
	}
	if err := d.Crash(5); err != nil {
		t.Errorf("second crash of same id: %v, want idempotent nil", err)
	}
	if c, _, _ := d.CrashStats(); c != 1 {
		t.Errorf("crash count %d after double crash, want 1", c)
	}
	if err := d.RemoveNode(5); !errors.Is(err, ErrCrashedNode) {
		t.Errorf("graceful leave of corpse: %v, want ErrCrashedNode", err)
	}
	// The corpse is still physically present and exempt from validation.
	if err := d.Validate(); err != nil {
		t.Fatalf("graph invalid with unrepaired corpse: %v", err)
	}
	if ids := testkit.DeadIDs(d.Graph().All()); len(ids) != 1 || ids[0] != 5 {
		t.Errorf("crashed ids = %v, want [5]", ids)
	}
}

// TestCrashRepairIdempotency is the repair-idempotency scenario: crashing the
// same node twice, crashing another node mid-repair, and sweeping the rest
// must each converge to a valid graph without double-repairing anything.
func TestCrashRepairIdempotency(t *testing.T) {
	d := New(32, Config{A: 4, Seed: 3})
	for _, id := range []int64{7, 19} {
		if err := d.Crash(id); err != nil {
			t.Fatal(err)
		}
	}
	// Repair node 7 while 19 is still dead — repair must cope with corpses
	// among the surviving neighbours it rewires.
	if !d.RepairCrashedID(7) {
		t.Fatal("first repair of 7 declined")
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("invalid after repairing 7 with 19 still dead: %v", err)
	}
	if d.RepairCrashedID(7) {
		t.Error("second repair of 7 ran, want no-op")
	}
	// Crash a third node mid-repair of 19's cohort, then sweep.
	if err := d.Crash(23); err != nil {
		t.Fatal(err)
	}
	if got := d.RepairAllCrashed(); got != 2 {
		t.Errorf("sweep repaired %d corpses, want 2", got)
	}
	if got := d.RepairAllCrashed(); got != 0 {
		t.Errorf("second sweep repaired %d corpses, want 0", got)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("invalid after full sweep: %v", err)
	}
	if ids := testkit.DeadIDs(d.Graph().All()); len(ids) != 0 {
		t.Errorf("crashed ids = %v after sweep, want none", ids)
	}
	for _, id := range []int64{7, 19, 23} {
		if d.NodeByID(id) != nil {
			t.Errorf("repaired id %d still present", id)
		}
	}
	if _, _, repairs := d.CrashStats(); repairs != 3 {
		t.Errorf("repair count %d, want 3", repairs)
	}
}

// TestJoinBesideCorpse joins new nodes while unrepaired corpses still occupy
// their lists: the local join must treat dead peers like dummies (they cannot
// extend their vectors) and the graph must stay valid throughout.
func TestJoinBesideCorpse(t *testing.T) {
	const n = 24
	d := New(n, Config{A: 2, Seed: 9})
	for _, id := range []int64{4, 5, 6} {
		if err := d.Crash(id); err != nil {
			t.Fatal(err)
		}
	}
	for id := int64(n); id < n+6; id++ {
		if _, err := d.Add(id); err != nil {
			t.Fatalf("join %d beside corpses: %v", id, err)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("invalid after join %d: %v", id, err)
		}
	}
	if got := d.RepairAllCrashed(); got != 3 {
		t.Fatalf("sweep repaired %d corpses, want 3", got)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("invalid after sweep: %v", err)
	}
}

// RepairAllCrashed sweeps every still-dead node through the scoped crash
// repair and returns how many it repaired. It models an anti-entropy pass; the
// hot path is detection-triggered per-node repair.
func (d *DSG) RepairAllCrashed() int {
	ids := testkit.DeadIDs(d.g.All())
	for _, id := range ids {
		d.repairCrashed(d.NodeByID(id))
	}
	return len(ids)
}
