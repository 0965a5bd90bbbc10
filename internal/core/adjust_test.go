package core

import (
	"math/rand"
	"testing"
)

// TestAdjustMatchesServe: routing is read-only, so applying a request
// sequence through Adjust must leave the DSG in exactly the state Serve (plus
// its scoped repair) leaves it in: same clock, same topology, same balance.
func TestAdjustMatchesServe(t *testing.T) {
	const n = 48
	a := New(n, Config{A: 4, Seed: 5})
	b := New(n, Config{A: 4, Seed: 5})
	a.RepairBalance()
	b.RepairBalance()

	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 150; i++ {
		u, v := int64(rng.Intn(n)), int64(rng.Intn(n))
		if u == v {
			continue
		}
		sres, err := a.Serve(u, v)
		if err != nil {
			t.Fatalf("serve %d→%d: %v", u, v, err)
		}
		a.RepairBalancePending()
		ares, err := b.Adjust(u, v)
		if err != nil {
			t.Fatalf("adjust %d→%d: %v", u, v, err)
		}
		if ares.TransformRounds != sres.TransformRounds || ares.Alpha != sres.Alpha ||
			ares.DirectLevel != sres.DirectLevel || ares.Time != sres.Time {
			t.Fatalf("adjust result %+v diverges from serve result %+v", ares, sres)
		}
	}
	if a.Clock() != b.Clock() {
		t.Fatalf("clocks diverged: serve %d, adjust %d", a.Clock(), b.Clock())
	}
	if a.Graph().Height() != b.Graph().Height() || a.DummyCount() != b.DummyCount() {
		t.Fatalf("topology diverged: serve (h=%d, dummies=%d), adjust (h=%d, dummies=%d)",
			a.Graph().Height(), a.DummyCount(), b.Graph().Height(), b.DummyCount())
	}
	if err := b.Validate(); err != nil {
		t.Fatalf("adjust-built DSG invalid: %v", err)
	}
}
