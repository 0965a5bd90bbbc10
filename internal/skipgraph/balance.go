package skipgraph

import (
	"fmt"
	"slices"
)

// BalanceViolation reports a run of more than `a` consecutive nodes of a
// level-d list that all moved to the same level-(d+1) sublist, violating the
// paper's a-balance property.
type BalanceViolation struct {
	Level int // the level d of the list containing the run
	// Start is the first node of the offending run. A repair resumes from
	// the node, not from its key: a dummy's key may be respread, or freed
	// and taken by another dummy, between the scan and the repair.
	Start  *Node
	RunLen int
	Bit    byte // the shared bit at level d+1
}

// String implements fmt.Stringer.
func (v BalanceViolation) String() string {
	return fmt.Sprintf("level %d: run of %d consecutive nodes with bit %d starting at %v",
		v.Level, v.RunLen, v.Bit, v.Start.key)
}

// Run is one maximal same-bit run of a level-d list: First to Last in key
// order, Len members, and whether one of them is real. Its members share the
// bit at level d+1; a member lacking that bit is a run of its own.
type Run struct {
	First, Last *Node
	Len         int
	HasReal     bool
}

// RunWalk says which way RunAt walks from its start.
type RunWalk uint8

const (
	RunBoth    RunWalk = iota // the whole run around the start
	RunForward                // the start and the members after it
	RunBack                   // the start and the members before it
)

// RunAt walks the same-bit run of x's level-d list that holds x, by links,
// in the given direction(s) from x; with limit > 0 it stops once it has
// limit members, for a caller that only needs to know the run is that long.
// It is the one run walk of the a-balance rule: the scans, the removal check
// and the repair all measure runs with it, and Run.OverLong judges them.
//
// A member lacking the next level's bit ends a run although a route walks
// straight through it, and RealRuns exempts all-dummy runs, so nothing
// bounds what dummies add to a routing path — a route walks through every
// dummy of such a run, and neither their length nor the dummy population is
// capped. That is why the a·H search bound does not hold as checked here;
// ROADMAP R1 is the item that makes the check the one the bound needs.
func RunAt(x *Node, level int, walk RunWalk, limit int) Run {
	r := Run{First: x, Last: x, Len: 1, HasReal: !x.dummy}
	if walk != RunForward {
		for p := x.Prev(level); p != nil && r.Len != limit && sameRun(p, x, level); p = p.Prev(level) {
			r.First, r.Len, r.HasReal = p, r.Len+1, r.HasReal || !p.dummy
		}
	}
	if walk != RunBack {
		for q := x.Next(level); q != nil && r.Len != limit && sameRun(x, q, level); q = q.Next(level) {
			r.Last, r.Len, r.HasReal = q, r.Len+1, r.HasReal || !q.dummy
		}
	}
	return r
}

// sameRun reports whether y and z, members of one level-d list, would share
// a run if adjacent: both carry the level-(d+1) bit, and it is the same. A
// member lacking the bit never extends a run.
func sameRun(y, z *Node, level int) bool {
	b := level + 1
	return b < len(y.bits) && b < len(z.bits) && y.bits[b] == z.bits[b]
}

// RunRule says which runs of more than a members break a-balance.
type RunRule uint8

const (
	// RealRuns counts a run only if it holds a real member: the scans,
	// RemovalKeepsBalance and the transformation's balance pass. Dummies
	// never split further, so an all-dummy run costs nothing at the next
	// level, and demanding a chain breaker for a run of chain breakers would
	// cascade (every inserted dummy spawning runs that need more dummies)
	// until the key space between two real nodes is exhausted.
	RealRuns RunRule = iota
	// AnyRun counts every run: the repair's re-walk of a reported violation,
	// which an earlier action of the same pass may have left all-dummy.
	AnyRun
)

// OverLong reports whether the run breaks a-balance under rule.
func (r Run) OverLong(a int, rule RunRule) bool {
	return r.Len > a && (r.HasReal || rule == AnyRun)
}

// appendViolation appends the level-d run's violation, if the scanners'
// rule (RealRuns) calls it over-long.
func (r Run) appendViolation(dst []BalanceViolation, level, a int) []BalanceViolation {
	if r.OverLong(a, RealRuns) {
		dst = append(dst, BalanceViolation{Level: level, Start: r.First, RunLen: r.Len, Bit: r.First.Bit(level + 1)})
	}
	return dst
}

// BalanceViolations scans the whole graph and returns every a-balance
// violation: for every list at every level, no a+1 consecutive members may
// share the next level's membership bit (RealRuns). It walks each list by its
// links, depth-first — a list, then its 0-sublist's subtree, then its
// 1-sublist's — and descends past members whose vector ends (dummies, §IV-F):
// they stay singleton above and the remaining members keep splitting —
// unlike TreeView, whose truncation semantics serve figure reconstruction
// and would hide every list below a dummy.
func (g *Graph) BalanceViolations(a int) []BalanceViolation {
	if a < 1 {
		panic(fmt.Sprintf("skipgraph: balance parameter must be >= 1, got %d", a))
	}
	var out []BalanceViolation
	var walk func(head *Node, level int)
	walk = func(head *Node, level int) {
		var sub [2]*Node
		out, _, sub = appendListViolations(out, head, level, a)
		for _, h := range sub {
			if h != nil && h.Next(level+1) != nil {
				walk(h, level+1)
			}
		}
	}
	if g.n >= 2 {
		walk(g.head, 0)
	}
	return out
}

// appendListViolations walks the level-d list from its head, run by run, and
// appends every over-long run (RealRuns) to dst. It also returns the list's
// length and the head of its 0- and 1-sublist (nil for a side no member
// takes).
func appendListViolations(dst []BalanceViolation, head *Node, level, a int) (_ []BalanceViolation, n int, sub [2]*Node) {
	for y := head; y != nil; {
		r := RunAt(y, level, RunForward, 0)
		dst = r.appendViolation(dst, level, a)
		if y.HasBit(level+1) && sub[y.bits[level+1]] == nil {
			sub[y.bits[level+1]] = y
		}
		n += r.Len
		y = r.Last.Next(level)
	}
	return dst, n, sub
}

// AppendBalanceViolationsIn is the scoped counterpart of BalanceViolations:
// it checks only the dirty regions named by refs, which must cover every
// list whose membership or next-level bits changed since the graph was last
// balanced (local joins, leaves, and repairs report exactly that set), and
// appends what it finds to dst. A windowed ref checks its window — the
// anchor's run plus the complete run on each side, O(a) when the graph was
// balanced before the change — and a Whole ref its entire list. Violations
// come out ref by ref, in ref order: two refs whose windows overlap each
// report what they share, once per ref, as a per-ref walk would. A ref with
// the anchor, level and extent of an earlier one is skipped, and so are stale
// refs (nodes no longer in the graph). The second result is the number of
// nodes examined, the deterministic work measure experiment E16 reports: the
// sum of the window sizes, plus each Whole ref's list and the anchor's
// distance from its head. It counts what a per-ref walk reads, not what the
// run table walks, so it measures the dirty set, not the scan.
func (g *Graph) AppendBalanceViolationsIn(dst []BalanceViolation, a int, refs []ListRef) ([]BalanceViolation, int) {
	if a < 1 {
		panic(fmt.Sprintf("skipgraph: balance parameter must be >= 1, got %d", a))
	}
	t := &g.scan
	scanned := g.windows(refs, false, true)
	for i, ref := range refs {
		level := int(ref.Level)
		if !ref.Whole {
			for _, r := range t.wins[i] {
				if r >= 0 {
					dst = t.runs[r].appendViolation(dst, level, a)
				}
			}
			continue
		}
		if !g.liveRef(ref) || slices.Contains(g.seenWide, ref) {
			continue
		}
		g.seenWide = append(g.seenWide, ref)
		head := ref.Node
		for p := head.Prev(level); p != nil; p = head.Prev(level) {
			head = p
			scanned++
		}
		var listLen int
		dst, listLen, _ = appendListViolations(dst, head, level, a)
		scanned += listLen + 1 // the anchor, counted on both walks
	}
	clear(g.seenWide)
	g.seenWide = g.seenWide[:0]
	t.release()
	return dst, scanned
}

// AppendDummiesIn appends to dst the distinct dummies that are in known or
// appear in any of the dirty regions named by the given ref lists, in key
// order, and returns the number of nodes walked, counted as
// AppendBalanceViolationsIn counts them but for every live ref, repeats
// included. Stale refs are skipped.
func (g *Graph) AppendDummiesIn(dst []*Node, known []*Node, refLists ...[]ListRef) ([]*Node, int) {
	t := &g.scan
	for _, refs := range refLists {
		t.flat = append(t.flat, refs...)
	}
	scanned := g.windows(t.flat, true, false)
	// A dummy sits in a list per level, so the runs' dummy lists overlap
	// across levels; a dummy is taken the first time this stamp reaches it.
	g.mark++
	stamp := g.mark
	for _, y := range known {
		if y.mark != stamp {
			y.mark = stamp
			t.cands = append(t.cands, keyedNode{y.key, y})
		}
	}
	for _, y := range t.dummies {
		if y.mark != stamp {
			y.mark = stamp
			t.cands = append(t.cands, keyedNode{y.key, y})
		}
	}
	for _, ref := range t.flat {
		if !ref.Whole || !g.liveRef(ref) {
			continue
		}
		level, head := int(ref.Level), ref.Node
		for p := head.Prev(level); p != nil; p = head.Prev(level) {
			head = p
			scanned++
		}
		for y := head; y != nil; y = y.Next(level) {
			scanned++
			if y.dummy && y.mark != stamp {
				y.mark = stamp
				t.cands = append(t.cands, keyedNode{y.key, y})
			}
		}
		scanned++ // the anchor, counted on both walks
	}
	t.sortCands()
	for _, c := range t.cands {
		dst = append(dst, c.n)
	}
	t.release()
	return dst, scanned
}

// liveRef reports whether ref names a list of a node still in the graph.
func (g *Graph) liveRef(ref ListRef) bool {
	return ref.Node != nil && ref.Level >= 0 && g.Contains(ref.Node)
}

// runTable is the memory of one scoped scan. The scan walks each (level,
// run) its windowed refs reach once, into runs, and answers every such ref
// from there: its window is its anchor's run and the run on either side of
// it. Refs are taken level by level (in ref order within a level), each
// level under a stamp of its own, and a node walked at the current level
// carries the stamp in mark and its run's index in scanRun — so a second ref
// into a run, or a window whose edge run an earlier window already read,
// costs a lookup, not a walk. scanned is still what a per-ref walk of each
// window would have read. The table is graph-owned scratch: truncated after
// each scan, and cleared, so it never keeps a removed node alive.
type runTable struct {
	runs    []Run
	dummies []*Node     // the walked runs' dummies, run by run (AppendDummiesIn only)
	order   []uint64    // the live windowed refs, as level<<32 | ref index, sorted
	wins    [][3]int32  // per ref: its window's runs, left to right; noRun where absent
	flat    []ListRef   // AppendDummiesIn's ref lists, back to back
	cands   []keyedNode // AppendDummiesIn's distinct dummies, before sorting
	merge   []keyedNode // sortCands' other buffer
}

// keyedNode is a node with its key inline, so sorting never dereferences.
type keyedNode struct {
	key Key
	n   *Node
}

const (
	noRun = -1
	// unknownRun marks a live windowed ref not yet answered; one the visit
	// filter skips keeps it, and reads as no window.
	unknownRun = -2
	// anchored, in a node's scanRun, says a ref of the current level with
	// that anchor has been answered: a second one is not the first visit.
	anchored = 1 << 31
	// maxBucket is the number of levels the ref ordering counts; refs above
	// them are sorted.
	maxBucket = 64
)

// windows answers every live windowed ref of refs from the run table:
// g.scan.wins[i] names ref i's window, or holds noRun throughout for a Whole,
// stale or (with firstOnly) repeated ref. It returns the windows' total size.
// With collect, every walked run's dummies are recorded.
func (g *Graph) windows(refs []ListRef, collect, firstOnly bool) int {
	t := &g.scan
	// Order the live windowed refs by level, stably: a counting sort on the
	// levels a graph has, the rare level past them sorted apart.
	var at [maxBucket + 1]int32
	t.wins = slices.Grow(t.wins[:0], len(refs))[:len(refs)]
	for i, ref := range refs {
		t.wins[i] = [3]int32{noRun, noRun, noRun}
		if !ref.Whole && g.liveRef(ref) {
			t.wins[i][1] = unknownRun // to be answered
			if b := min(int(ref.Level), maxBucket); b < maxBucket {
				at[b+1]++
			}
		}
	}
	for b := 1; b <= maxBucket; b++ {
		at[b] += at[b-1]
	}
	t.order = slices.Grow(t.order[:0], int(at[maxBucket]))[:at[maxBucket]]
	for i, ref := range refs {
		if t.wins[i][1] != unknownRun {
			continue
		}
		o := uint64(ref.Level)<<32 | uint64(i)
		if b := min(int(ref.Level), maxBucket); b < maxBucket {
			t.order[at[b]] = o
			at[b]++
		} else {
			t.order = append(t.order, o)
		}
	}
	slices.Sort(t.order[at[maxBucket-1]:])
	scanned, level, stamp := 0, -1, uint64(0)
	for _, o := range t.order {
		i := int(uint32(o))
		if l := int(o >> 32); l != level {
			level = l
			g.mark++
			stamp = g.mark
		}
		x := refs[i].Node
		if firstOnly && x.mark == stamp && x.scanRun&anchored != 0 {
			continue
		}
		r := t.runOf(x, level, stamp, collect)
		x.scanRun |= anchored
		w := [3]int32{t.leftOf(r, level, stamp, collect), r, t.rightOf(r, level, stamp, collect)}
		for _, s := range w {
			if s >= 0 {
				scanned += t.runs[s].Len
			}
		}
		t.wins[i] = w
	}
	return scanned
}

// runOf returns the run of x's level list that holds x, measuring it with
// RunAt and stamping every member, unless this level's stamp says it has
// been.
func (t *runTable) runOf(x *Node, level int, stamp uint64, collect bool) int32 {
	if x.mark == stamp {
		return int32(x.scanRun &^ anchored)
	}
	idx := int32(len(t.runs))
	run := RunAt(x, level, RunBoth, 0)
	for y := run.First; ; y = y.Next(level) {
		y.mark, y.scanRun = stamp, uint32(idx)
		if y.dummy && collect {
			t.dummies = append(t.dummies, y)
		}
		if y == run.Last {
			break
		}
	}
	t.runs = append(t.runs, run)
	return idx
}

// leftOf and rightOf return the run beside run r, noRun at the list's end.
func (t *runTable) leftOf(r int32, level int, stamp uint64, collect bool) int32 {
	if p := t.runs[r].First.Prev(level); p != nil {
		return t.runOf(p, level, stamp, collect)
	}
	return noRun
}

func (t *runTable) rightOf(r int32, level int, stamp uint64, collect bool) int32 {
	if q := t.runs[r].Last.Next(level); q != nil {
		return t.runOf(q, level, stamp, collect)
	}
	return noRun
}

// sortCands puts the candidates in key order: a bottom-up merge sort on the
// inline keys, in insertion-sorted blocks. Keys are unique in a graph, so
// any sort gives this order; this one makes no comparator call, which is
// most of what a few hundred candidates cost to sort with one.
func (t *runTable) sortCands() {
	a := t.cands
	const block = 16
	for lo := 0; lo < len(a); lo += block {
		b := a[lo:min(lo+block, len(a))]
		for i := 1; i < len(b); i++ {
			for j := i; j > 0 && b[j].key.Less(b[j-1].key); j-- {
				b[j], b[j-1] = b[j-1], b[j]
			}
		}
	}
	buf := slices.Grow(t.merge[:0], len(a))[:len(a)]
	for width := block; width < len(a); width *= 2 {
		for lo := 0; lo < len(a); lo += 2 * width {
			mid, hi := min(lo+width, len(a)), min(lo+2*width, len(a))
			i, j, k := lo, mid, lo
			for ; i < mid && j < hi; k++ {
				if a[j].key.Less(a[i].key) {
					buf[k], j = a[j], j+1
				} else {
					buf[k], i = a[i], i+1
				}
			}
			k += copy(buf[k:], a[i:mid])
			copy(buf[k:], a[j:hi])
		}
		a, buf = buf, a
	}
	t.cands, t.merge = a, buf
}

// release empties the table for the next scan, dropping its node references.
func (t *runTable) release() {
	t.runs = recycle(t.runs)
	t.dummies = recycle(t.dummies)
	t.flat = recycle(t.flat)
	t.cands = recycle(t.cands)
	t.merge = recycle(t.merge)
	t.order = t.order[:0]
}

// recycle empties a scratch buffer for its next use, dropping the
// references it held.
func recycle[T any](buf []T) []T {
	clear(buf)
	return buf[:0]
}

// RemovalKeepsBalance reports whether removing n keeps every list
// a-balanced: at each level n participates in, the runs on either side of n
// that its departure would merge must not be over-long (RealRuns). A node
// lacking the next level's bit is a run boundary, so n itself may be
// breaking a chain purely by presence.
func RemovalKeepsBalance(n *Node, a int) bool {
	for e := 0; e <= n.BitsLen(); e++ {
		l, r := n.Prev(e), n.Next(e)
		if l == nil || r == nil || !sameRun(l, r, e) {
			continue // removal can only shorten a run; a boundary survives
		}
		// The merged run holds the left run and r, so it is over-long once the
		// left run has a members, one of them real: the walk left stops at a
		// members and goes on only while every member so far is a dummy.
		left := RunAt(l, e, RunBack, a)
		if left.Len == a {
			if left.HasReal {
				return false
			}
			rest := RunAt(left.First, e, RunBack, 0)
			left.Len, left.HasReal = left.Len-1+rest.Len, rest.HasReal
		}
		// With a real member on the left, the merged run is over-long once it
		// has a+1 members: the walk right stops there.
		limit := 0
		if left.HasReal {
			limit = max(a+1-left.Len, 1)
		}
		right := RunAt(r, e, RunForward, limit)
		if (Run{Len: left.Len + right.Len, HasReal: left.HasReal || right.HasReal}).OverLong(a, RealRuns) {
			return false
		}
	}
	return true
}
