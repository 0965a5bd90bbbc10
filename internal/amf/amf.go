// Package amf implements the paper's Approximate Median Finding algorithm
// (§V, Algorithm 2): given a linked list of n positions each holding a
// value, build a balanced probabilistic skip list, gather values leftward
// level by level (a node that did not step up forwards everything it holds
// to its nearest left neighbour that did), and from level ⌈log_{a/2} h⌉+1
// onward locally sort and uniformly sample a·h values, carrying left/right
// rank credits so the head can pick a value whose rank is within
// n/2 ± n/(2a) of the true median (Lemma 1).
//
// Values admit one special class, +∞, used by DSG's priority rule P1 for
// the communicating pair.
package amf

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"lsasg/internal/skiplist"
)

// Value is a totally ordered priority value: either a finite int64 or +∞.
type Value struct {
	Inf bool
	V   int64
}

// Finite returns a finite Value.
func Finite(v int64) Value { return Value{V: v} }

// Infinite returns the +∞ Value.
func Infinite() Value { return Value{Inf: true} }

// Less reports v < o.
func (v Value) Less(o Value) bool {
	if v.Inf {
		return false
	}
	if o.Inf {
		return true
	}
	return v.V < o.V
}

// Cmp returns -1, 0, or 1 as v <, ==, > o.
func (v Value) Cmp(o Value) int {
	switch {
	case v.Less(o):
		return -1
	case o.Less(v):
		return 1
	default:
		return 0
	}
}

// GreaterEq reports v ≥ o (the comparison DSG uses against the median).
func (v Value) GreaterEq(o Value) bool { return !v.Less(o) }

// String implements fmt.Stringer.
func (v Value) String() string {
	if v.Inf {
		return "+inf"
	}
	return fmt.Sprintf("%d", v.V)
}

// item is a surviving value plus rank credits: below counts discarded
// original values known to be ≤ val, above counts those known to be ≥ val.
// Every original value is absorbed into exactly one credit, so
// Σ (1 + below + above) over surviving items is always n.
type item struct {
	val   Value
	below int64
	above int64
}

// Result is the outcome of one AMF run. The skip list built during the run
// is exposed for reuse: DSG reuses it for distributed counts (|gs|, L_low,
// L_high), a-balance chain detection, and group-id broadcast, and destroys
// it afterwards (paper Algorithm 1, steps 5–8).
type Result struct {
	Median Value
	Rounds int
	// List is the balanced skip list, nil when the input was small enough
	// (≤ 2a) for a direct linear gather.
	List *skiplist.SkipList

	n int
}

// Scratch owns every buffer an AMF run needs, so a caller that runs AMF
// once per list split (DSG's adjuster) allocates nothing in steady state.
// The zero value is ready to use. A Scratch serves one goroutine, and the
// Result of a Find — its List in particular — is valid only until the next
// Find on the same Scratch.
type Scratch struct {
	list   skiplist.SkipList
	sorted []Value
	// items holds every surviving value of the current level in base-list
	// order, cnt[i] how many of them the level's i-th member holds; the
	// spares are the other half of each ping-pong pair.
	items, itemsSpare []item
	cnt, cntSpare     []int
	// starts[k] is the index, in the level below, of the first member whose
	// items the level's k-th member gathered; merged is mergeRuns' output
	// and its ping-pong partner.
	starts         []int
	merged, spare  []item
	retained       []int
	prefix, suffix []int64
}

// Find runs AMF over the given values with balance parameter a. It panics
// on an empty input or a < 2.
func Find(values []Value, a int, rng *rand.Rand) *Result {
	res := new(Scratch).Find(values, a, rng)
	return &res
}

// Find is the package-level Find run out of sc's buffers.
func (sc *Scratch) Find(values []Value, a int, rng *rand.Rand) Result {
	n := len(values)
	if n == 0 {
		panic("amf: no values")
	}
	if a < 2 {
		panic(fmt.Sprintf("amf: need a >= 2, got %d", a))
	}
	if n == 1 {
		return Result{Median: values[0], Rounds: 1, n: n}
	}
	if n <= 2*a {
		// The list is shorter than a constant: the left-most node gathers
		// everything linearly and computes the exact median.
		sc.sorted = append(sc.sorted[:0], values...)
		slices.SortFunc(sc.sorted, Value.Cmp)
		return Result{
			Median: sc.sorted[(n-1)/2],
			Rounds: 2 * n, // linear gather plus linear broadcast
			n:      n,
		}
	}

	sl := &sc.list
	sl.Reset(n, a, rng)
	rounds := sl.ConstructionRounds
	h := sl.Height()
	sampleSize := a * h
	threshold := samplingThreshold(h, a)

	items, cnt := sc.items[:0], sc.cnt[:0]
	for _, v := range values {
		items = append(items, item{val: v})
		cnt = append(cnt, 1)
	}
	itemsSpare, cntSpare := sc.itemsSpare, sc.cntSpare
	starts := sc.starts[:0]
	for d := 0; d < h; d++ {
		// Gather: a member that did not step up forwards everything it holds
		// to its nearest left neighbour that did. Members hold contiguous
		// stretches of items, so forwarding only merges adjacent counts.
		lower, upper := sl.Level(d), sl.Level(d+1)
		held := cntSpare[:0]
		starts = starts[:0]
		k := 0
		levelRounds, segLoad := 0, 0
		for i, p := range lower {
			if k < len(upper) && upper[k] == p {
				held = append(held, cnt[i])
				starts = append(starts, i)
				k++
				segLoad = 0
				continue
			}
			segLoad += cnt[i]
			held[len(held)-1] += cnt[i]
			if segLoad > levelRounds {
				levelRounds = segLoad
			}
		}
		// runs is what each member of the level below held: once sampling
		// has begun, a sorted stretch apiece.
		runs := cnt
		cnt, cntSpare = held, cnt
		rounds += levelRounds
		if d >= threshold {
			out, off := itemsSpare[:0], 0
			for q, c := range cnt {
				stretch := items[off : off+c]
				off += c
				if d == threshold {
					// The first sampling level: no item carries a credit yet,
					// so equal items are identical and any sort is the
					// stable one.
					slices.SortFunc(stretch, cmpItems)
				} else {
					end := len(runs)
					if q+1 < len(starts) {
						end = starts[q+1]
					}
					stretch = sc.mergeRuns(stretch, runs[starts[q]:end])
				}
				before := len(out)
				out = sc.sample(out, stretch, sampleSize)
				cnt[q] = len(out) - before
			}
			items, itemsSpare = out, items
		}
	}
	sc.items, sc.itemsSpare, sc.cnt, sc.cntSpare, sc.starts = items, itemsSpare, cnt, cntSpare, starts
	// The head holds everything that survived, sorted by its last sample —
	// unless no level sampled, and then every item is still credit-free.
	if threshold >= h {
		slices.SortFunc(items, cmpItems)
	}
	median := sc.pickMedianByRanks(items, n)
	rounds += sl.BroadcastRounds() // announce the median to the base level
	return Result{Median: median, Rounds: rounds, List: sl, n: n}
}

func cmpItems(x, y item) int { return x.val.Cmp(y.val) }

// samplingThreshold returns ⌈log_{a/2} h⌉ + 1, the level from which
// sampling starts. For a ≤ 4 the base degenerates; we clamp it to 2, which
// only makes sampling start later (never earlier) than the paper requires.
func samplingThreshold(h, a int) int {
	base := float64(a) / 2
	if base < 2 {
		base = 2
	}
	if h <= 1 {
		return 1
	}
	t := int(math.Ceil(math.Log(float64(h))/math.Log(base))) + 1
	if t < 1 {
		t = 1
	}
	return t
}

// mergeRuns merges the consecutive sorted runs of items, of the given
// lengths, into one sorted slice — items itself for a single run, else a
// scratch buffer valid until the next call. A tie goes to the earlier run,
// so the result is what a stable sort of items would give.
func (sc *Scratch) mergeRuns(items []item, runs []int) []item {
	if len(runs) < 2 {
		return items
	}
	acc, off := items[:runs[0]], runs[0]
	out, spare := sc.merged, sc.spare
	for _, r := range runs[1:] {
		next := items[off : off+r]
		off += r
		out = slices.Grow(out[:0], len(acc)+len(next))
		i, j := 0, 0
		for i < len(acc) && j < len(next) {
			if next[j].val.Less(acc[i].val) {
				out, j = append(out, next[j]), j+1
			} else {
				out, i = append(out, acc[i]), i+1
			}
		}
		out = append(append(out, acc[i:]...), next[j:]...)
		acc, out, spare = out, spare, out
	}
	sc.merged, sc.spare = out, spare
	return acc
}

// sample uniformly samples `size` of the sorted items, always retaining both
// extremes, and appends the survivors to dst.
// Discarded items fold their credits into retained neighbours: the item
// itself and its above-credit go to the nearest retained item below it
// (which it is ≥), its below-credit goes to the nearest retained item above
// it (which bounds it from above).
func (sc *Scratch) sample(dst, items []item, size int) []item {
	if len(items) <= size || len(items) < 3 {
		return append(dst, items...)
	}
	if size < 2 {
		size = 2
	}
	m := len(items)
	retained := sc.retained[:0]
	last := -1
	for j := 0; j < size; j++ {
		idx := j * (m - 1) / (size - 1)
		if idx != last {
			retained = append(retained, idx)
			last = idx
		}
	}
	sc.retained = retained
	base := len(dst)
	for _, idx := range retained {
		dst = append(dst, items[idx])
	}
	out := dst[base:]
	// A discarded item v' between retained L and R satisfies L ≤ v' ≤ R,
	// so its above-credit is valid as L's above and its below-credit as
	// R's below. v' itself could go either way; alternating sides keeps
	// the two credit kinds in balance, which the midpoint rank estimator
	// in pickMedianByRanks depends on (a one-sided fold biases the
	// selection toward an extreme).
	flip := false
	for k := 0; k+1 < len(retained); k++ {
		lo, hi := retained[k], retained[k+1]
		for i := lo + 1; i < hi; i++ {
			if flip {
				out[k].above += items[i].above
				out[k+1].below += 1 + items[i].below
			} else {
				out[k].above += 1 + items[i].above
				out[k+1].below += items[i].below
			}
			flip = !flip
		}
	}
	return dst
}

// pickMedianByRanks selects the surviving value whose estimated global rank
// is closest to (n+1)/2. For item j in the sorted list, the values certainly
// ≤ it are itself, its below-credit, and every lower item with its
// below-credit; symmetric for ≥; the rest are uncertain and split evenly.
func (sc *Scratch) pickMedianByRanks(sorted []item, n int) Value {
	if len(sorted) == 0 {
		panic("amf: empty final list")
	}
	// prefix[j] = Σ_{i<j} (1 + below_i), suffix[j] = Σ_{i>=j} (1 + above_i)
	prefix := append(sc.prefix[:0], make([]int64, len(sorted)+1)...)
	suffix := append(sc.suffix[:0], make([]int64, len(sorted)+1)...)
	sc.prefix, sc.suffix = prefix, suffix
	for j, it := range sorted {
		prefix[j+1] = prefix[j] + 1 + it.below
	}
	for j := len(sorted) - 1; j >= 0; j-- {
		suffix[j] = suffix[j+1] + 1 + sorted[j].above
	}
	target := float64(n+1) / 2
	bestJ, bestDist := 0, math.Inf(1)
	for j, it := range sorted {
		certainLE := prefix[j] + 1 + it.below
		certainGE := suffix[j+1] + 1 + it.above
		uncertain := float64(int64(n) - certainLE - certainGE + 1) // self counted twice
		est := float64(certainLE) + uncertain/2
		if d := math.Abs(est - target); d < bestDist {
			bestDist = d
			bestJ = j
		}
	}
	return sorted[bestJ].val
}

// Count runs a distributed count of positions satisfying pred, reusing the
// skip list when one was built. It returns the count and the round cost.
func (r *Result) Count(pred func(p int) bool) (int, int) {
	if r.List != nil {
		return r.List.Count(pred)
	}
	c := 0
	for p := 0; p < r.n; p++ {
		if pred(p) {
			c++
		}
	}
	return c, 2 * r.n // linear gather + linear broadcast along the list
}

// CountRounds returns the round cost of one distributed count over the
// list, without running one.
func (r *Result) CountRounds() int {
	if r.List != nil {
		return r.List.SumRounds()
	}
	return 2 * r.n
}

// BroadcastRounds returns the cost of broadcasting one value to the whole
// list (used to propagate a split group's new group-id).
func (r *Result) BroadcastRounds() int {
	if r.List != nil {
		return r.List.BroadcastRounds()
	}
	return r.n
}
