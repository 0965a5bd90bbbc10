package core

import (
	"math/rand"
	"testing"
)

func TestStressHarsh(t *testing.T) {
	for _, a := range []int{2, 3, 4, 8} {
		for _, n := range []int{5, 17, 128} {
			d := New(n, Config{A: a, Seed: int64(a*100 + n)})
			rng := rand.New(rand.NewSource(int64(n)))
			for i := 0; i < 300; i++ {
				u := int64(rng.Intn(n))
				v := int64(rng.Intn(n))
				if u == v {
					continue
				}
				if _, err := serveChecked(d, u, v); err != nil {
					t.Fatalf("a=%d n=%d req %d (%d,%d): %v", a, n, i, u, v, err)
				}
			}
			h := d.Graph().Height()
			t.Logf("a=%d n=%d: height=%d dummies=%d", a, n, h, d.DummyCount())
		}
	}
}
