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

// BalanceViolations scans the whole graph and returns every a-balance
// violation: for every list at every level, no a+1 consecutive members may
// share the next level's membership bit. The scan descends past members
// whose vector ends (dummies, §IV-F) — they stay singleton above and the
// remaining members keep splitting — unlike TreeView, whose truncation
// semantics serve figure reconstruction and would hide every list below a
// dummy.
func (g *Graph) BalanceViolations(a int) []BalanceViolation {
	if a < 1 {
		panic(fmt.Sprintf("skipgraph: balance parameter must be >= 1, got %d", a))
	}
	var out []BalanceViolation
	var walk func(list []*Node, level int)
	walk = func(list []*Node, level int) {
		runs := runScanner{out: out, level: level, a: a}
		for _, n := range list {
			runs.add(n)
		}
		out = runs.finish()
		zeros := make([]*Node, 0, len(list))
		ones := make([]*Node, 0, len(list))
		for _, n := range list {
			if !n.HasBit(level + 1) {
				continue // singleton above this level
			}
			if n.Bit(level+1) == 0 {
				zeros = append(zeros, n)
			} else {
				ones = append(ones, n)
			}
		}
		if len(zeros) >= 2 {
			walk(zeros, level+1)
		}
		if len(ones) >= 2 {
			walk(ones, level+1)
		}
	}
	if g.n >= 2 {
		walk(g.Nodes(), 0)
	}
	return out
}

// AppendBalanceViolationsIn is the scoped counterpart of BalanceViolations:
// it checks only the dirty regions named by refs, which must cover every
// list whose membership or next-level bits changed since the graph was last
// balanced (local joins, leaves, and repairs report exactly that set), and
// appends what it finds to dst. A windowed ref scans the anchor's run
// neighbourhood — O(a) when the graph was balanced before the change — and
// a Whole ref scans its entire list; either way the scan walks the links in
// place. Stale refs (nodes no longer in the graph) are skipped. The second
// result is the number of nodes examined, the deterministic work measure
// experiment E16 reports.
func (g *Graph) AppendBalanceViolationsIn(dst []BalanceViolation, a int, refs []ListRef) ([]BalanceViolation, int) {
	if a < 1 {
		panic(fmt.Sprintf("skipgraph: balance parameter must be >= 1, got %d", a))
	}
	g.mark++
	scanned := 0
	for _, ref := range refs {
		if !g.liveRef(ref) || !g.firstVisit(ref) {
			continue
		}
		level := int(ref.Level)
		runs := runScanner{out: dst, level: level, a: a}
		first, last, walked := regionBounds(ref)
		visited := 0
		for y := first; y != nil; y = y.Next(level) {
			visited++
			runs.add(y)
			if y == last {
				break
			}
		}
		dst = runs.finish()
		scanned += walked
		if ref.Whole {
			scanned += visited
		}
	}
	clear(g.seenWide)
	g.seenWide = g.seenWide[:0]
	return dst, scanned
}

// firstVisit reports whether ref is the first with its anchor, level and
// extent that the scan stamped g.mark has met, and remembers it. A windowed
// ref's level is a bit in its anchor's seenLevels; a Whole ref, or a level
// the word cannot hold, goes to a short list searched linearly (one
// producer, the transformation, reports a Whole list only for a breaker it
// could not place).
func (g *Graph) firstVisit(ref ListRef) bool {
	n := ref.Node
	if n.mark != g.mark {
		n.mark, n.seenLevels = g.mark, 0
	}
	if ref.Whole || ref.Level >= 32 {
		if slices.Contains(g.seenWide, ref) {
			return false
		}
		g.seenWide = append(g.seenWide, ref)
		return true
	}
	bit := uint32(1) << ref.Level
	if n.seenLevels&bit != 0 {
		return false
	}
	n.seenLevels |= bit
	return true
}

// AppendDummiesIn appends to dst the distinct dummies that are in known or
// appear in any of the dirty regions named by the given ref lists, in key
// order, and returns the number of nodes walked. Stale refs are skipped.
func (g *Graph) AppendDummiesIn(dst []*Node, known []*Node, refLists ...[]ListRef) ([]*Node, int) {
	// Regions overlap (one dummy sits in a list per level); a dummy is taken
	// the first time this call's mark reaches it.
	g.mark++
	base, scanned := len(dst), 0
	for _, y := range known {
		if y.mark != g.mark {
			y.mark = g.mark
			dst = append(dst, y)
		}
	}
	for _, refs := range refLists {
		for _, ref := range refs {
			if !g.liveRef(ref) {
				continue
			}
			first, last, walked := regionBounds(ref)
			visited := 0
			for y := first; y != nil; y = y.Next(int(ref.Level)) {
				visited++
				if y.dummy && y.mark != g.mark {
					y.mark = g.mark
					dst = append(dst, y)
				}
				if y == last {
					break
				}
			}
			scanned += walked
			if ref.Whole {
				scanned += visited
			}
		}
	}
	slices.SortFunc(dst[base:], func(x, y *Node) int { return x.key.Compare(y.key) })
	return dst, scanned
}

// liveRef reports whether ref names a list of a node still in the graph.
func (g *Graph) liveRef(ref ListRef) bool {
	return ref.Node != nil && ref.Level >= 0 && g.Contains(ref.Node)
}

// regionBounds returns the first and last node of the list segment a ref
// marks dirty; the segment is walked over the links themselves, first to
// last along Next(ref.Level). For a windowed ref that is the anchor's
// maximal same-bit run (w.r.t. the next level's bit; a node lacking the bit
// forms its own boundary run) extended by the complete adjacent run on each
// side — every run a mutation at the anchor's position can have changed,
// with both edge runs complete so run lengths measured inside the window
// are exact. For a Whole ref it is the full list, and last is nil: the
// segment runs to the list's end. walked is the work measure of the scan:
// the anchor plus every node between it and either bound — for a Whole ref,
// whose right bound is open, the caller adds the nodes it visits instead.
func regionBounds(ref ListRef) (first, last *Node, walked int) {
	x, level := ref.Node, int(ref.Level)
	first, walked = x, 1
	for cross := 0; ; {
		p := first.Prev(level)
		if p == nil {
			break
		}
		if !ref.Whole && runBoundary(p, first, level+1) {
			cross++
			if cross > 1 {
				break
			}
		}
		first = p
		walked++
	}
	if ref.Whole {
		return first, nil, walked
	}
	last = x
	for cross := 0; ; {
		nx := last.Next(level)
		if nx == nil {
			break
		}
		if runBoundary(last, nx, level+1) {
			cross++
			if cross > 1 {
				break
			}
		}
		last = nx
		walked++
	}
	return first, last, walked
}

// runBoundary reports whether adjacent list members y (left) and z (right)
// belong to different runs w.r.t. the level-`bitLevel` membership bit: a
// node lacking the bit never extends a run.
func runBoundary(y, z *Node, bitLevel int) bool {
	return bitLevel >= len(y.bits) || bitLevel >= len(z.bits) || y.bits[bitLevel] != z.bits[bitLevel]
}

// runScanner finds over-long same-bit runs in one list, fed its members in
// key order. Runs consisting solely of dummy nodes are exempt: dummies
// never split further, so such a run costs nothing at the next level, and
// demanding a chain breaker for a run of chain breakers would cascade
// (every inserted dummy spawning runs that need more dummies) until the key
// space between two real nodes is exhausted. Nothing bounds what such runs
// add to a routing path — a route walks through every dummy of one, and
// neither their length nor the dummy population is capped — which is why
// the a·H search bound does not hold as checked here; ROADMAP R1 is the
// item that makes the check the one the bound needs.
type runScanner struct {
	out      []BalanceViolation
	level, a int

	start   *Node // first node of the current run
	runLen  int
	hasReal bool
}

func (s *runScanner) add(y *Node) {
	if s.start != nil && !runBoundary(s.start, y, s.level+1) {
		s.runLen++
		s.hasReal = s.hasReal || !y.dummy
		return
	}
	s.flush()
	s.start, s.runLen, s.hasReal = y, 1, !y.dummy
}

func (s *runScanner) flush() {
	if s.runLen > s.a && s.hasReal && s.start.HasBit(s.level+1) {
		s.out = append(s.out, BalanceViolation{
			Level:  s.level,
			Start:  s.start,
			RunLen: s.runLen,
			Bit:    s.start.Bit(s.level + 1),
		})
	}
}

// finish closes the last run and returns the accumulated violations.
func (s *runScanner) finish() []BalanceViolation {
	s.flush()
	return s.out
}

// RemovalKeepsBalance reports whether removing n keeps every list
// a-balanced: at each level n participates in, the same-bit runs its
// departure would merge (or shorten) must not exceed `a`. A node lacking the
// next level's bit is a run boundary, so n itself may be breaking a chain
// purely by presence. All-dummy runs are exempt, as in the violation scans.
func RemovalKeepsBalance(n *Node, a int) bool {
	for e := 0; e <= n.BitsLen(); e++ {
		bitLevel := e + 1
		l, r := n.Prev(e), n.Next(e)
		if l == nil || r == nil {
			continue // removal can only shorten an edge run
		}
		if runBoundary(l, r, bitLevel) {
			continue // a boundary survives on at least one side
		}
		runLen, hasReal := 0, false
		for x := l; x != nil && !runBoundary(x, l, bitLevel); x = x.Prev(e) {
			runLen++
			hasReal = hasReal || !x.dummy
			if runLen > a && hasReal {
				return false
			}
		}
		for x := r; x != nil && !runBoundary(x, r, bitLevel); x = x.Next(e) {
			runLen++
			hasReal = hasReal || !x.dummy
			if runLen > a && hasReal {
				return false
			}
		}
	}
	return true
}

// MaxSearchPath returns a·H, the a-balance guarantee on the search-path
// length between any pair of nodes.
func (g *Graph) MaxSearchPath(a int) int { return a * g.Height() }
