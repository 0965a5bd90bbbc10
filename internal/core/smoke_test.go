package core

import (
	"fmt"
	"math/rand"
	"testing"

	"lsasg/internal/skipgraph"
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

// serveChecked is serveRoute, then a check of the guarantees the analysis
// uses once the access is adjusted: the full invariant set (Validate), a
// direct u–v link (the self-adjusting model's requirement), and the
// request's timestamp on the pair's list (rule T1).
func serveChecked(d *DSG, u, v int64) (OpResult, error) {
	r, err := serveRoute(d, u, v)
	if err != nil {
		return r, err
	}
	if err := d.Validate(); err != nil {
		return r, fmt.Errorf("after request %d (%d,%d): %w", d.clock, u, v, err)
	}
	x, y := d.NodeByID(u), d.NodeByID(v)
	if ok, _ := d.g.DirectlyLinked(x, y); !ok {
		return r, fmt.Errorf("after request %d: nodes %d and %d not directly linked", d.clock, u, v)
	}
	level := skipgraph.CommonPrefixLen(x, y)
	if got := d.state(x).timestamp(level); got != d.clock {
		return r, fmt.Errorf("after request %d: node %d timestamp at pair level %d is %d, want %d", d.clock, u, level, got, d.clock)
	}
	return r, nil
}

// TestSmokeServe drives random requests through a DSG, checking every
// adjustment (serveChecked); any structural breakage fails immediately.
func TestSmokeServe(t *testing.T) {
	for _, n := range []int{4, 8, 16, 33, 64} {
		d := New(n, Config{A: 4, Seed: 42})
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 200; i++ {
			u := int64(rng.Intn(n))
			v := int64(rng.Intn(n))
			if u == v {
				continue
			}
			res, err := serveChecked(d, u, v)
			if err != nil {
				t.Fatalf("n=%d request %d (%d,%d): %v", n, i, u, v, err)
			}
			if res.DirectLevel < 0 {
				t.Fatalf("n=%d request %d (%d,%d): no direct link", n, i, u, v)
			}
		}
	}
}
