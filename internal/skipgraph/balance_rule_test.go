package skipgraph

import (
	"strings"
	"testing"
)

// ruleGraph builds one level-0 list from a spec of space-separated members
// in key order: R or D (real or dummy) followed by the member's membership
// vector, e.g. "R0 D1 D". Vectors may be partial or empty.
func ruleGraph(t *testing.T, spec string) (*Graph, []*Node) {
	t.Helper()
	var nodes []*Node
	for i, tok := range strings.Fields(spec) {
		var x *Node
		switch tok[0] {
		case 'R':
			x = NewNode(KeyOf(int64(i)), int64(i))
		case 'D':
			x = NewDummy(KeyOf(int64(i)), int64(i))
		default:
			t.Fatalf("bad member %q", tok)
		}
		for l, c := range tok[1:] {
			x.SetBit(l+1, byte(c-'0'))
		}
		nodes = append(nodes, x)
	}
	return NewFromNodes(nodes, nil), nodes
}

// TestRunRule pins the a-balance run rule at a = 2 on hand-built lists: what
// the run kernel measures, how each rule judges it, and that the scans and
// the removal check apply RealRuns. The all-dummy run is the row the two
// rules disagree on: balanced under RealRuns, over-long under AnyRun.
func TestRunRule(t *testing.T) {
	const a = 2
	for _, tc := range []struct {
		name, spec string
		probe      int  // a member of the level-0 run under test
		runLen     int  // that run's length
		real, any  bool // over-long under RealRuns, under AnyRun
		remove     int  // a member whose removal is checked, or -1
		keeps      bool // RemovalKeepsBalance of that member
	}{
		{"all-dummy run of a+1 between reals", "R0 D1 D1 D1 R0", 2, 3, false, true, -1, false},
		{"removal merging an all-dummy run of a+1", "R0 D1 D1 R0 D1 R0", 1, 2, false, false, 3, true},
		{"bit-less dummy inside a run", "R1 R1 D R1 R1", 2, 1, false, false, 2, false},
		{"run of a+1, its one real at the left edge", "R1 D1 D1 R0", 1, 3, true, true, -1, false},
		{"run of a+1, its one real at the right edge", "R0 D1 D1 R1", 2, 3, true, true, -1, false},
		{"run of exactly a", "R1 R1 R0 R1", 0, 2, false, false, 2, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, nodes := ruleGraph(t, tc.spec)
			x := nodes[tc.probe]
			run := RunAt(x, 0, RunBoth, 0)
			if run.Len != tc.runLen {
				t.Fatalf("RunAt: length %d, want %d", run.Len, tc.runLen)
			}
			// The two halves meet at x and make up the run.
			back, fwd := RunAt(x, 0, RunBack, 0), RunAt(x, 0, RunForward, 0)
			if back.First != run.First || fwd.Last != run.Last || back.Len+fwd.Len-1 != run.Len ||
				(back.HasReal || fwd.HasReal) != run.HasReal {
				t.Fatalf("RunAt halves %+v and %+v do not make up %+v", back, fwd, run)
			}
			if short := RunAt(run.First, 0, RunForward, 2); short.Len != min(run.Len, 2) {
				t.Fatalf("RunAt with limit 2 walked %d members of a run of %d", short.Len, run.Len)
			}
			if got := run.OverLong(a, RealRuns); got != tc.real {
				t.Errorf("OverLong(RealRuns) = %v, want %v", got, tc.real)
			}
			if got := run.OverLong(a, AnyRun); got != tc.any {
				t.Errorf("OverLong(AnyRun) = %v, want %v", got, tc.any)
			}
			var want []BalanceViolation
			if tc.real {
				want = []BalanceViolation{{Level: 0, Start: run.First, RunLen: run.Len, Bit: x.Bit(1)}}
			}
			check := func(scan string, got []BalanceViolation) {
				t.Helper()
				if len(got) != len(want) || len(want) > 0 && got[0] != want[0] {
					t.Errorf("%s: %v, want %v", scan, got, want)
				}
			}
			check("BalanceViolations", g.BalanceViolations(a))
			windowed, _ := g.AppendBalanceViolationsIn(nil, a, []ListRef{{Node: x, Level: 0}})
			check("AppendBalanceViolationsIn windowed", windowed)
			whole, _ := g.AppendBalanceViolationsIn(nil, a, []ListRef{{Node: x, Level: 0, Whole: true}})
			check("AppendBalanceViolationsIn Whole", whole)
			if tc.remove >= 0 {
				if got := RemovalKeepsBalance(nodes[tc.remove], a); got != tc.keeps {
					t.Errorf("RemovalKeepsBalance(member %d) = %v, want %v", tc.remove, got, tc.keeps)
				}
			}
		})
	}
}
