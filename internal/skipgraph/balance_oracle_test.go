package skipgraph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The per-ref scans the run table replaced, kept as the oracle the scoped
// scans are held to: every ref walks its own window, twice (once to find its
// ends, once to read it), so overlapping windows are walked again per ref.
// They are the replaced code but for the visit filter, which keeps its
// semantics (one visit per anchor, level and extent) in a set of its own
// instead of the nodes' scratch fields. They count runs with the scanner and
// boundary test the run kernel (RunAt, Run.OverLong) replaced, copied here,
// so the comparison checks the kernel against independent code.

// refRunBoundary reports whether adjacent list members y (left) and z
// (right) belong to different runs w.r.t. the level-`bitLevel` membership
// bit: a node lacking the bit never extends a run.
func refRunBoundary(y, z *Node, bitLevel int) bool {
	return bitLevel >= len(y.bits) || bitLevel >= len(z.bits) || y.bits[bitLevel] != z.bits[bitLevel]
}

// refRunScanner finds over-long same-bit runs holding a real member in one
// list, fed its members in key order.
type refRunScanner struct {
	out      []BalanceViolation
	level, a int

	start   *Node // first node of the current run
	runLen  int
	hasReal bool
}

func (s *refRunScanner) add(y *Node) {
	if s.start != nil && !refRunBoundary(s.start, y, s.level+1) {
		s.runLen++
		s.hasReal = s.hasReal || !y.dummy
		return
	}
	s.flush()
	s.start, s.runLen, s.hasReal = y, 1, !y.dummy
}

func (s *refRunScanner) flush() {
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
func (s *refRunScanner) finish() []BalanceViolation {
	s.flush()
	return s.out
}

func (g *Graph) refBalanceViolations(a int) []BalanceViolation {
	var out []BalanceViolation
	var walk func(list []*Node, level int)
	walk = func(list []*Node, level int) {
		runs := refRunScanner{out: out, level: level, a: a}
		for _, n := range list {
			runs.add(n)
		}
		out = runs.finish()
		var zeros, ones []*Node
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

func (g *Graph) refAppendBalanceViolationsIn(dst []BalanceViolation, a int, refs []ListRef) ([]BalanceViolation, int) {
	if a < 1 {
		panic(fmt.Sprintf("skipgraph: balance parameter must be >= 1, got %d", a))
	}
	seen := make(map[ListRef]bool)
	scanned := 0
	for _, ref := range refs {
		if !g.liveRef(ref) || seen[ref] {
			continue
		}
		seen[ref] = true
		level := int(ref.Level)
		runs := refRunScanner{out: dst, level: level, a: a}
		first, last, walked := refRegionBounds(ref)
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
	return dst, scanned
}

func (g *Graph) refAppendDummiesIn(dst []*Node, known []*Node, refLists ...[]ListRef) ([]*Node, int) {
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
			first, last, walked := refRegionBounds(ref)
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

func refRegionBounds(ref ListRef) (first, last *Node, walked int) {
	x, level := ref.Node, int(ref.Level)
	first, walked = x, 1
	for cross := 0; ; {
		p := first.Prev(level)
		if p == nil {
			break
		}
		if !ref.Whole && refRunBoundary(p, first, level+1) {
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
		if refRunBoundary(last, nx, level+1) {
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

// dummyHeavyGraph builds a graph shaped like the served regime: real nodes
// with random vectors and, in most gaps, a run of dummies under the left
// node's primary — each a copy of its left neighbour's prefix to a random
// depth and no further, so it lacks the bits above (a bit-less member there),
// some with one opposite bit on top, like a chain breaker.
func dummyHeavyGraph(rng *rand.Rand, reals int) *Graph {
	var nodes []*Node
	id := int64(reals)
	for p := int64(0); p < int64(reals); p++ {
		x := NewNode(KeyOf(p), p)
		for l := 1; l <= 4+rng.Intn(8); l++ {
			x.SetBit(l, byte(rng.Intn(2)))
		}
		nodes = append(nodes, x)
		if rng.Intn(4) == 0 {
			continue
		}
		run := 1 + rng.Intn(12)
		for m := 1; m <= run; m++ {
			dm := NewDummy(Key{Primary: p, Minor: int32(m * 1000)}, id)
			id++
			depth := rng.Intn(x.BitsLen() + 1)
			for l := 1; l <= depth; l++ {
				dm.SetBit(l, x.Bit(l))
			}
			if rng.Intn(3) == 0 {
				dm.SetBit(depth+1, byte(rng.Intn(2)))
			}
			nodes = append(nodes, dm)
		}
	}
	return NewFromNodes(nodes, nil)
}

// scanRefs draws a dirty set the way the repair builds one, and harder: for
// random anchors every level they are linked at and one beyond, anchors
// repeated at once and later (overlapping windows, duplicate anchors), refs
// at both ends of lists, Whole refs, levels of 32 and more (past the width of
// the old visit word, and past the levels the ref ordering counts), and refs
// to nodes no longer in the graph.
func scanRefs(rng *rand.Rand, g *Graph, stale []*Node) []ListRef {
	nodes := g.Nodes()
	var refs []ListRef
	for range 3 * len(nodes) / 4 {
		x := nodes[rng.Intn(len(nodes))]
		l := rng.Intn(x.MaxLinkedLevel() + 2)
		ref := ListRef{Node: x, Level: int32(l)}
		switch rng.Intn(16) {
		case 0:
			ref.Whole = true
		case 1:
			ref.Node = x.ListHead(l)
		case 2:
			for ref.Node.Next(l) != nil {
				ref.Node = ref.Node.Next(l)
			}
		case 3:
			ref.Level = int32(32 + rng.Intn(64))
		case 4:
			if len(stale) > 0 {
				ref.Node = stale[rng.Intn(len(stale))]
			}
		case 5:
			if len(refs) > 0 {
				ref = refs[rng.Intn(len(refs))] // the same anchor again, later
			}
		}
		refs = append(refs, ref)
		if rng.Intn(5) == 0 {
			refs = append(refs, ref) // and at once
		}
		if nb := ref.Node.Next(int(ref.Level)); nb != nil && rng.Intn(3) == 0 {
			refs = append(refs, ListRef{Node: nb, Level: ref.Level}) // an overlapping window
		}
	}
	return refs
}

// checkScans runs the whole-graph scan, both scoped scans and their oracles
// over one dirty set and fails on any difference: the violations in order,
// duplicates included; the dummies; and the work count of each.
func checkScans(t *testing.T, g *Graph, a int, refs []ListRef, known []*Node) (dups int) {
	t.Helper()
	if got, want := g.BalanceViolations(a), g.refBalanceViolations(a); !slices.Equal(got, want) {
		t.Fatalf("whole-graph scan: %d violations, oracle %d", len(got), len(want))
	}
	want, wantScanned := g.refAppendBalanceViolationsIn(nil, a, refs)
	got, gotScanned := g.AppendBalanceViolationsIn(nil, a, refs)
	if gotScanned != wantScanned {
		t.Errorf("violation scan: scanned %d, oracle %d", gotScanned, wantScanned)
	}
	if !slices.Equal(got, want) {
		i := 0
		for i < min(len(got), len(want)) && got[i] == want[i] {
			i++
		}
		t.Fatalf("violation scan: %d violations, oracle %d; they part at #%d", len(got), len(want), i)
	}
	seen := make(map[BalanceViolation]bool, len(want))
	for _, v := range want {
		if seen[v] {
			dups++
		}
		seen[v] = true
	}
	half := len(refs) / 2
	wantD, wantDScanned := g.refAppendDummiesIn(nil, known, refs[:half], refs[half:])
	gotD, gotDScanned := g.AppendDummiesIn(nil, known, refs[:half], refs[half:])
	if gotDScanned != wantDScanned {
		t.Errorf("dummy scan: scanned %d, oracle %d", gotDScanned, wantDScanned)
	}
	if !slices.Equal(gotD, wantD) {
		t.Fatalf("dummy scan: %d dummies, oracle %d", len(gotD), len(wantD))
	}
	return dups
}

// TestScopedScansMatchOracle holds the run-table scans to the per-ref
// oracles on randomized dummy-heavy graphs, with a departed node's refs among
// the dirty set and some dummies handed in as known. The dirty sets are
// built to overlap, so the oracle reports the same violation more than once;
// the check that such duplicates occurred is what makes dropping one fail.
func TestScopedScansMatchOracle(t *testing.T) {
	dups := 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := dummyHeavyGraph(rng, 40+rng.Intn(80))
		var stale []*Node
		for range 3 {
			nodes := g.Nodes()
			stale = append(stale, g.Remove(nodes[rng.Intn(len(nodes))].key))
		}
		var known []*Node
		for x := range g.All() {
			if x.dummy && rng.Intn(8) == 0 {
				known = append(known, x)
			}
		}
		for _, a := range []int{1, 2, 4} {
			dups += checkScans(t, g, a, scanRefs(rng, g, stale), known)
		}
	}
	if dups == 0 {
		t.Fatal("no dirty set produced a duplicate violation; the test cannot see one dropped")
	}
}

// CheckScopedScans and ScanRefs give the external test below the oracle
// comparison, on graphs only the adjuster (which imports this package) can
// build.
func CheckScopedScans(t *testing.T, g *Graph, a int, refs []ListRef) int {
	return checkScans(t, g, a, refs, nil)
}

func ScanRefs(rng *rand.Rand, g *Graph) []ListRef { return scanRefs(rng, g, nil) }

// refRemovalKeepsBalance is RemovalKeepsBalance with the left run walked
// whole, as it was before its walk stopped at a members: the verdicts must
// agree.
func refRemovalKeepsBalance(n *Node, a int) bool {
	for e := 0; e <= n.BitsLen(); e++ {
		l, r := n.Prev(e), n.Next(e)
		if l == nil || r == nil || !sameRun(l, r, e) {
			continue
		}
		left := RunAt(l, e, RunBack, 0)
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

// CheckRemovalVerdicts holds RemovalKeepsBalance to refRemovalKeepsBalance
// for every dummy of g at balance parameter a, and returns how many of them
// may go.
func CheckRemovalVerdicts(t *testing.T, g *Graph, a int) (removable int) {
	t.Helper()
	for x := range g.All() {
		if !x.dummy {
			continue
		}
		got, want := RemovalKeepsBalance(x, a), refRemovalKeepsBalance(x, a)
		if got != want {
			t.Fatalf("RemovalKeepsBalance(dummy %v, a=%d) = %v, the whole-run walk says %v", x.key, a, got, want)
		}
		if got {
			removable++
		}
	}
	return removable
}
