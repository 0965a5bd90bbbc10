package core

import (
	"testing"
)

// TestMembershipKeepsWorkingSetState checks the membership path preserves
// the self-adjusting state: after churn, a previously hot pair that
// survived stays cheap to route.
func TestMembershipKeepsWorkingSetState(t *testing.T) {
	const n = 64
	d := New(n, Config{A: 4, Seed: 7})
	// Make (3, 40) hot.
	for i := 0; i < 20; i++ {
		if _, err := serveRoute(d, 3, 40); err != nil {
			t.Fatal(err)
		}
	}
	// Churn ten unrelated nodes through the network.
	for i := int64(0); i < 10; i++ {
		if _, err := d.Add(n + i); err != nil {
			t.Fatal(err)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("after join %d: %v", n+i, err)
		}
		if err := d.RemoveNode(10 + i); err != nil {
			t.Fatal(err)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("after leave %d: %v", 10+i, err)
		}
	}
	route, err := d.Graph().Route(d.NodeByID(3), d.NodeByID(40))
	if err != nil {
		t.Fatal(err)
	}
	if route.Distance() > 0 {
		t.Errorf("hot pair distance %d after churn, want direct link", route.Distance())
	}
}
