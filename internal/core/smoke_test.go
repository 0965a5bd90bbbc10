package core

import (
	"math/rand"
	"testing"
)

// serveRoute serves one route with the step (ApplyOp) and returns its miss —
// an unknown or dead endpoint — as the error.
func serveRoute(d *DSG, u, v int64) (OpResult, error) {
	r, err := d.ApplyOp(RouteOp(u, v))
	if err == nil {
		err = r.Miss
	}
	return r, err
}

// TestSmokeServe drives random requests through a DSG with invariant
// checking enabled; any structural breakage fails immediately.
func TestSmokeServe(t *testing.T) {
	for _, n := range []int{4, 8, 16, 33, 64} {
		d := New(n, Config{A: 4, Seed: 42, CheckInvariants: true})
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 200; i++ {
			u := int64(rng.Intn(n))
			v := int64(rng.Intn(n))
			if u == v {
				continue
			}
			res, err := serveRoute(d, u, v)
			if err != nil {
				t.Fatalf("n=%d request %d (%d,%d): %v", n, i, u, v, err)
			}
			if res.DirectLevel < 0 {
				t.Fatalf("n=%d request %d (%d,%d): no direct link", n, i, u, v)
			}
		}
	}
}
