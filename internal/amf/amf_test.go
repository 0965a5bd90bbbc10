package amf

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// trueRank returns how many values in vs are strictly less than m and how
// many are ≤ m, bracketing m's rank range under ties.
func trueRank(vs []Value, m Value) (lo, hi int) {
	for _, v := range vs {
		if v.Less(m) {
			lo++
		}
		if !m.Less(v) {
			hi++
		}
	}
	return lo, hi
}

func TestValueOrdering(t *testing.T) {
	inf := Infinite()
	a, b := Finite(-5), Finite(7)
	if !a.Less(b) || b.Less(a) {
		t.Error("finite ordering broken")
	}
	if !a.Less(inf) || inf.Less(a) {
		t.Error("infinity ordering broken")
	}
	if inf.Less(inf) {
		t.Error("inf < inf")
	}
	if inf.Cmp(inf) != 0 || a.Cmp(a) != 0 {
		t.Error("Cmp of equal values not 0")
	}
	if !inf.GreaterEq(b) || !b.GreaterEq(b) || a.GreaterEq(b) {
		t.Error("GreaterEq broken")
	}
	if inf.String() != "+inf" || b.String() != "7" {
		t.Error("String broken")
	}
}

func TestExactMedianSmallLists(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 1; n <= 8; n++ { // all ≤ 2a for a=4 → exact
		vs := make([]Value, n)
		for i := range vs {
			vs[i] = Finite(int64(rng.Intn(100)))
		}
		res := Find(vs, 4, rng)
		sorted := append([]Value(nil), vs...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })
		want := sorted[(n-1)/2]
		if res.Median.Cmp(want) != 0 {
			t.Fatalf("n=%d: median %v, want %v", n, res.Median, want)
		}
		if res.List != nil {
			t.Fatalf("n=%d: built a skip list for a tiny input", n)
		}
	}
}

// TestLemma1RankWindow is experiment E1's core assertion: the AMF output's
// rank lies within n/2 ± n/(2a) (Lemma 1). We run many random instances
// per (n, a) and require every one inside the window.
func TestLemma1RankWindow(t *testing.T) {
	for _, a := range []int{4, 8} {
		for _, n := range []int{50, 200, 1000} {
			for trial := 0; trial < 15; trial++ {
				rng := rand.New(rand.NewSource(int64(n*100 + trial + a)))
				vs := make([]Value, n)
				for i := range vs {
					vs[i] = Finite(int64(rng.Intn(1 << 20)))
				}
				res := Find(vs, a, rng)
				lo, hi := trueRank(vs, res.Median)
				wLo, wHi := TrueMedianRankWindow(n, a)
				// The returned value's rank range [lo+1, hi] must intersect
				// the Lemma 1 window.
				if float64(hi) < wLo || float64(lo+1) > wHi {
					t.Errorf("a=%d n=%d trial=%d: median rank in [%d,%d], window [%.1f,%.1f]",
						a, n, trial, lo+1, hi, wLo, wHi)
				}
			}
		}
	}
}

func TestMedianWithInfinities(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Majority-infinite input: the median must be ∞.
	vs := []Value{Infinite(), Infinite(), Infinite(), Finite(1), Finite(2)}
	res := Find(vs, 2, rng)
	if !res.Median.Inf {
		t.Fatalf("median = %v, want +inf", res.Median)
	}
	// Two infinities among many negatives: the median is finite.
	n := 100
	vs = make([]Value, n)
	for i := range vs {
		vs[i] = Finite(int64(-i * 10))
	}
	vs[0], vs[1] = Infinite(), Infinite()
	res = Find(vs, 4, rng)
	if res.Median.Inf {
		t.Fatal("median should be finite when infinities are a minority")
	}
}

// TestRoundsPolylog: under CONGEST one value crosses a link per round, so
// AMF's gather costs Θ(a²h) per level below the sampling threshold and the
// total is polylogarithmic in n (the paper's "expected O(log n)" counts
// value-batches, not single-value rounds). Assert sub-linear growth and an
// explicit a²·(h+2)² envelope.
func TestRoundsPolylog(t *testing.T) {
	const a = 4
	meanRounds := func(n int) (rounds, height float64) {
		totalR, totalH := 0, 0
		const trials = 10
		for i := 0; i < trials; i++ {
			rng := rand.New(rand.NewSource(int64(n + i)))
			vs := make([]Value, n)
			for j := range vs {
				vs[j] = Finite(int64(j))
			}
			res := Find(vs, a, rng)
			totalR += res.Rounds
			totalH += res.List.Height()
		}
		return float64(totalR) / trials, float64(totalH) / trials
	}
	small, _ := meanRounds(128)
	large, h := meanRounds(4096)
	if large > 16*small {
		t.Errorf("AMF rounds grow near-linearly: %.1f → %.1f for 32x input", small, large)
	}
	if limit := 8 * a * a * (h + 2) * (h + 2); large > limit {
		t.Errorf("AMF rounds %.1f exceed the a²(h+2)² envelope %.1f (h=%.1f)", large, limit, h)
	}
}

func TestCountReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 200
	vs := make([]Value, n)
	for i := range vs {
		vs[i] = Finite(int64(i))
	}
	res := Find(vs, 4, rng)
	count, rounds := res.Count(func(p int) bool { return p < 50 })
	if count != 50 {
		t.Fatalf("count = %d, want 50", count)
	}
	if rounds <= 0 {
		t.Fatal("count rounds must be positive")
	}
	if res.BroadcastRounds() <= 0 {
		t.Fatal("broadcast rounds must be positive")
	}
}

// TestCreditConservationQuick: every original value is accounted for in the
// surviving items' credits (the invariant behind pickMedianByRanks).
func TestCreditConservationQuick(t *testing.T) {
	f := func(seed int64, szRaw uint16) bool {
		n := int(szRaw%3000) + 64
		rng := rand.New(rand.NewSource(seed))
		items := make([]item, n)
		for i := range items {
			items[i] = item{val: Finite(int64(rng.Intn(1000)))}
		}
		slices.SortStableFunc(items, cmpItems)
		sampled := new(Scratch).sample(nil, items, 16)
		var total int64
		for _, it := range sampled {
			total += 1 + it.below + it.above
		}
		return total == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestMedianAllEqual: ties must not confuse rank selection.
func TestMedianAllEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	vs := make([]Value, 500)
	for i := range vs {
		vs[i] = Finite(42)
	}
	res := Find(vs, 4, rng)
	if res.Median.Inf || res.Median.V != 42 {
		t.Fatalf("median = %v, want 42", res.Median)
	}
}

func TestFindPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, f := range []func(){
		func() { Find(nil, 4, rng) },
		func() { Find([]Value{Finite(1)}, 1, rng) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			f()
		}()
	}
}

// TrueMedianRankWindow reports the rank window [n/2 - n/2a, n/2 + n/2a] of
// Lemma 1 for a list of length n.
func TrueMedianRankWindow(n, a int) (lo, hi float64) {
	half := float64(n) / 2
	slack := float64(n) / float64(2*a)
	return half - slack, half + slack
}
