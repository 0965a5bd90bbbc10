package workload

import (
	"slices"
	"testing"
)

// TestFixedHotSet: the relabelled stream ranks its keys exactly as the
// canonical stream does, whatever the inner seed, and is a bijective
// relabelling of the inner stream — same length, same arrival pattern.
func TestFixedHotSet(t *testing.T) {
	const n, m = 64, 5000
	canon := popularityOrder(Zipf{Seed: CanonSeed, S: 1.2}.Generate(n, m), n)
	for _, seed := range []int64{1, 2, CanonSeed} {
		inner := Zipf{Seed: seed, S: 1.2}.Generate(n, m)
		got := FixedHotSet{Zipf{Seed: seed, S: 1.2}}.Generate(n, m)
		if len(got) != m {
			t.Fatalf("seed %d: %d requests, want %d", seed, len(got), m)
		}
		innerOrder, gotOrder := popularityOrder(inner, n), popularityOrder(got, n)
		to := make(map[int]int, n)
		for i, r := range inner {
			for _, p := range [][2]int{{r.Src, got[i].Src}, {r.Dst, got[i].Dst}} {
				if prev, ok := to[p[0]]; ok && prev != p[1] {
					t.Fatalf("seed %d: key %d relabelled to both %d and %d", seed, p[0], prev, p[1])
				}
				to[p[0]] = p[1]
			}
		}
		for rank, key := range innerOrder {
			if dst, ok := to[key]; ok && dst != canon[rank] {
				t.Fatalf("seed %d: rank %d key %d went to %d, canonical rank holder is %d", seed, rank, key, dst, canon[rank])
			}
		}
		if !slices.Equal(gotOrder[:8], canon[:8]) {
			t.Errorf("seed %d: hot set %v, canonical %v", seed, gotOrder[:8], canon[:8])
		}
	}
}
