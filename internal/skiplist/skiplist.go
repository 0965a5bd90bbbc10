// Package skiplist implements the balanced probabilistic skip list that the
// paper's AMF algorithm (§V) builds over a linked list of n positions: the
// left-most position steps up to each next level with probability 1, every
// other position with probability 1/a, and local repair guarantees that any
// two consecutive members of a level are supported by at least a/2 and at
// most 2a members of the level below. The structure is reused for the
// distributed-sum (Appendix D), distributed-count, and broadcast primitives
// DSG needs, with synchronous-round accounting for each.
//
// Positions are indices 0..n-1 of the underlying linked list; the package
// is agnostic to what the list's nodes hold.
package skiplist

import (
	"fmt"
	"math/rand"
)

// SkipList is a built structure over n base positions. The zero value is
// ready for Reset, which rebuilds in place and reuses every buffer of the
// previous build — the form DSG's adjuster runs once per list split.
type SkipList struct {
	a int
	// Levels are stored back to back: level d is flat[off[d]:off[d+1]].
	// Level 0 is [0..n-1]; each level is a subset of the one below, starting
	// with position 0.
	flat []int
	off  []int

	// ConstructionRounds is the synchronous-round cost of the randomized
	// construction: per level, one promotion round plus a linear left-
	// neighbour search bounded by the widest pre-repair gap, plus a
	// constant for the local repair handshake.
	ConstructionRounds int

	// Round costs of one leftward gather and one broadcast, fixed by the
	// structure and computed once per build.
	gatherRounds    int
	broadcastRounds int

	idx []int // promotion scratch, reused across builds
}

// Build constructs the skip list over n positions with balance parameter a.
// It panics if n < 1 or a < 2.
func Build(n, a int, rng *rand.Rand) *SkipList {
	s := new(SkipList)
	s.Reset(n, a, rng)
	return s
}

// Reset rebuilds s over n positions with balance parameter a, reusing its
// buffers; anything previously read from s (Level views included) is
// invalid afterwards. It panics if n < 1 or a < 2.
func (s *SkipList) Reset(n, a int, rng *rand.Rand) {
	if n < 1 {
		panic(fmt.Sprintf("skiplist: need n >= 1, got %d", n))
	}
	if a < 2 {
		panic(fmt.Sprintf("skiplist: need a >= 2, got %d", a))
	}
	s.a = a
	s.ConstructionRounds = 0
	s.flat = s.flat[:0]
	for i := 0; i < n; i++ {
		s.flat = append(s.flat, i)
	}
	s.off = append(s.off[:0], 0, n)
	for lo, hi := 0, n; hi-lo > 1; lo, hi = hi, len(s.flat) {
		s.ConstructionRounds += s.promoteAndRepair(lo, hi, rng)
		s.off = append(s.off, len(s.flat))
	}
	s.computeRounds()
}

// promoteAndRepair appends the next level to s.flat, built from the level
// cur = s.flat[lo:hi]: random promotion, then demotion of under-supported
// members and extra promotion into over-long gaps so that every support
// lies in [a/2, 2a]. Appended positions are values of cur (base positions);
// gaps are measured in cur-indices per the paper's definition of support.
// It returns the level's construction rounds.
func (s *SkipList) promoteAndRepair(lo, hi int, rng *rand.Rand) (rounds int) {
	a, m := s.a, hi-lo
	// Promotion: index 0 always; others with probability 1/a.
	idx := append(s.idx[:0], 0)
	for i := 1; i < m; i++ {
		if rng.Intn(a) == 0 {
			idx = append(idx, i)
		}
	}
	s.idx = idx
	// One promotion round plus linear neighbour search over the widest raw
	// gap (each freshly promoted member walks the lower level to find its
	// level-(d+1) neighbours).
	rounds = 1 + maxGap(idx, m)

	// Repair pass 1: demote members whose support (distance to the previous
	// kept member) is below a/2. The left-most member is never demoted.
	minSup := a / 2
	if minSup < 1 {
		minSup = 1
	}
	kept := idx[:1]
	for _, i := range idx[1:] {
		if i-kept[len(kept)-1] >= minSup {
			kept = append(kept, i)
		}
	}
	// Repair pass 2: split any gap wider than 2a (including the tail after
	// the last member) by promoting evenly spaced extra members.
	maxSup := 2 * a
	for j, i := range kept {
		s.flat = append(s.flat, s.flat[lo+i])
		end := m // tail gap runs to the (virtual) right end
		if j+1 < len(kept) {
			end = kept[j+1]
		}
		gap := end - i
		if gap <= maxSup {
			continue
		}
		segments := (gap + maxSup - 1) / maxSup
		for k := 1; k < segments; k++ {
			s.flat = append(s.flat, s.flat[lo+i+k*gap/segments])
		}
	}
	return rounds + 2 // leader election + step-up/step-down messages
}

// maxGap returns the widest distance between consecutive members of idx,
// including the tail to position m.
func maxGap(idx []int, m int) int {
	widest := 0
	for j, i := range idx {
		end := m
		if j+1 < len(idx) {
			end = idx[j+1]
		}
		if g := end - i; g > widest {
			widest = g
		}
	}
	return widest
}

// N returns the number of base positions.
func (s *SkipList) N() int { return s.off[1] }

// A returns the balance parameter.
func (s *SkipList) A() int { return s.a }

// Height returns h: the level at which the left-most position is singleton.
func (s *SkipList) Height() int { return len(s.off) - 2 }

// Level returns the positions present at level d. The slice is a view into
// the structure: it must not be modified, and the next Reset invalidates it.
func (s *SkipList) Level(d int) []int { return s.flat[s.off[d]:s.off[d+1]] }

// Collector returns, for a position p present at level d but not level d+1,
// the nearest left neighbour of p that is present at level d+1 — the member
// that gathers p's values in AMF and in the distributed sum.
func (s *SkipList) Collector(d int, p int) int {
	upper := s.Level(d + 1)
	best := upper[0]
	for _, q := range upper {
		if q > p {
			break
		}
		best = q
	}
	return best
}

// Verify checks the support bounds on every level transition: supports must
// lie in [a/2, 2a], the tail after a level's last member must be at most 2a,
// and every level's head must be the base head.
func (s *SkipList) Verify() error {
	for d := 0; d < s.Height(); d++ {
		lower, upper := s.Level(d), s.Level(d+1)
		if upper[0] != lower[0] {
			return fmt.Errorf("level %d head is %d, want %d", d+1, upper[0], lower[0])
		}
		posInLower := make(map[int]int, len(lower))
		for i, p := range lower {
			posInLower[p] = i
		}
		minSup := s.a / 2
		if minSup < 1 {
			minSup = 1
		}
		for j := 1; j < len(upper); j++ {
			i1, ok1 := posInLower[upper[j-1]]
			i2, ok2 := posInLower[upper[j]]
			if !ok1 || !ok2 {
				return fmt.Errorf("level %d member missing from level %d", d+1, d)
			}
			sup := i2 - i1
			if sup < minSup || sup > 2*s.a {
				return fmt.Errorf("level %d support %d outside [%d, %d]", d+1, sup, minSup, 2*s.a)
			}
		}
		// Tail bound: values to the right of the last member must reach it
		// within 2a forwarding rounds.
		if tail := len(lower) - posInLower[upper[len(upper)-1]]; tail > 2*s.a {
			return fmt.Errorf("level %d tail %d exceeds %d", d+1, tail, 2*s.a)
		}
	}
	top := s.Level(s.Height())
	if len(top) != 1 || top[0] != s.flat[0] {
		return fmt.Errorf("top level is %v, want singleton head", top)
	}
	return nil
}

// Sum computes the distributed sum of values (one per base position) per
// Appendix D: each level forwards partial sums to the nearest left upper
// member; the head computes the total and broadcasts it. It returns the sum
// and the round cost (SumRounds).
func (s *SkipList) Sum(values []int64) (total int64, rounds int) {
	if len(values) != s.N() {
		panic(fmt.Sprintf("skiplist: Sum over %d values, want %d", len(values), s.N()))
	}
	partial := append([]int64(nil), values...) // indexed by base position
	for d := 0; d < s.Height(); d++ {
		lower, upper := s.Level(d), s.Level(d+1)
		k := 0 // pointer into upper; upper is a subsequence of lower
		collector := upper[0]
		for _, p := range lower {
			if k < len(upper) && upper[k] == p {
				collector = p
				k++
				continue
			}
			partial[collector] += partial[p]
		}
	}
	return partial[s.flat[0]], s.SumRounds()
}

// SumRounds returns the round cost of one distributed sum or count over the
// list: gather up plus broadcast down. It depends only on the structure, so
// a caller that needs the cost but not a total (DSG's |gs|, L_low, L_high
// counts) reads it without running a Sum.
func (s *SkipList) SumRounds() int { return s.gatherRounds + s.broadcastRounds }

// Count is a distributed count: Sum over 0/1 indicators of pred.
func (s *SkipList) Count(pred func(p int) bool) (count int, rounds int) {
	values := make([]int64, s.N())
	for p := range values {
		if pred(p) {
			values[p] = 1
		}
	}
	total, r := s.Sum(values)
	return int(total), r
}

// BroadcastRounds returns the round cost for the head to broadcast one
// O(log n)-bit value to every base position through the skip list: each
// level fans the value out across segments of width at most 2a.
func (s *SkipList) BroadcastRounds() int { return s.broadcastRounds }

// computeRounds derives both per-structure round costs in one pass. Per the
// CONGEST model a level's gather costs its longest forwarding segment (the
// most non-promoted members between two promoted ones, tail included); its
// broadcast fans out across the same segment plus the promoted member.
func (s *SkipList) computeRounds() {
	s.gatherRounds, s.broadcastRounds = 0, 0
	for d := 0; d < s.Height(); d++ {
		lower, upper := s.Level(d), s.Level(d+1)
		k, seg, widest := 0, 0, 0
		for _, p := range lower {
			if k < len(upper) && upper[k] == p {
				k++
				seg = 0
				continue
			}
			seg++
			if seg > widest {
				widest = seg
			}
		}
		s.gatherRounds += widest
		s.broadcastRounds += widest + 1
	}
}
