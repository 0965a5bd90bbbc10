package amf

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refFind is Find as it was when every level stable-sorted each member's
// stretch and the head stable-sorted what survived: the reference the
// sort-once, merge-above version must reproduce exactly.
func refFind(values []Value, a int, rng *rand.Rand) Result {
	n := len(values)
	if n == 1 {
		return Result{Median: values[0], Rounds: 1, n: n}
	}
	if n <= 2*a {
		sorted := slices.Clone(values)
		slices.SortFunc(sorted, Value.Cmp)
		return Result{Median: sorted[(n-1)/2], Rounds: 2 * n, n: n}
	}
	sc := new(Scratch)
	sl := &sc.list
	sl.Reset(n, a, rng)
	rounds := sl.ConstructionRounds
	h := sl.Height()
	sampleSize := a * h
	threshold := samplingThreshold(h, a)
	var items []item
	var cnt []int
	for _, v := range values {
		items = append(items, item{val: v})
		cnt = append(cnt, 1)
	}
	for d := 0; d < h; d++ {
		lower, upper := sl.Level(d), sl.Level(d+1)
		var held []int
		k := 0
		levelRounds, segLoad := 0, 0
		for i, p := range lower {
			if k < len(upper) && upper[k] == p {
				held = append(held, cnt[i])
				k++
				segLoad = 0
				continue
			}
			segLoad += cnt[i]
			held[len(held)-1] += cnt[i]
			levelRounds = max(levelRounds, segLoad)
		}
		cnt = held
		rounds += levelRounds
		if d >= threshold {
			var out []item
			off := 0
			for q, c := range cnt {
				before := len(out)
				stretch := items[off : off+c]
				slices.SortStableFunc(stretch, cmpItems)
				out = sc.sample(out, stretch, sampleSize)
				off += c
				cnt[q] = len(out) - before
			}
			items = out
		}
	}
	slices.SortStableFunc(items, cmpItems)
	median := sc.pickMedianByRanks(items, n)
	rounds += sl.BroadcastRounds()
	return Result{Median: median, Rounds: rounds, List: sl, n: n}
}

// TestFindMatchesStableSortReference holds Find to refFind for n from 1 to
// 2 000 (every n to 200, every ninth above) at a ∈ {2, 3, 4, 8}: the same
// median, rounds, count rounds and
// broadcast rounds from the same random stream. The inputs cycle through
// distinct values, heavy ties (a handful of distinct values) and ties with
// +∞ mixed in (the communicating pair's priority), so a merge that broke a
// tie the wrong way, or a sort skipped where credits already differ, would
// move a median.
func TestFindMatchesStableSortReference(t *testing.T) {
	var sc Scratch
	for _, a := range []int{2, 3, 4, 8} {
		for n := 1; n <= 2000; n += 1 + 8*min(n/200, 1) {
			seed := int64(a*10_000 + n)
			vr := rand.New(rand.NewSource(seed))
			values := make([]Value, n)
			for i := range values {
				switch n % 3 {
				case 0:
					values[i] = Finite(vr.Int63n(1 << 40))
				case 1:
					values[i] = Finite(vr.Int63n(5))
				default:
					if vr.Intn(6) == 0 {
						values[i] = Infinite()
					} else {
						values[i] = Finite(vr.Int63n(12) - 6)
					}
				}
			}
			want := refFind(slices.Clone(values), a, rand.New(rand.NewSource(seed)))
			got := sc.Find(slices.Clone(values), a, rand.New(rand.NewSource(seed)))
			if g, w := describe(got), describe(want); g != w {
				t.Fatalf("a=%d n=%d: Find gives %s, the stable-sort reference %s", a, n, g, w)
			}
		}
	}
}

// describe renders what a caller reads off a Result.
func describe(r Result) string {
	return fmt.Sprintf("median %v, %d rounds, count %d, broadcast %d",
		r.Median, r.Rounds, r.CountRounds(), r.BroadcastRounds())
}
