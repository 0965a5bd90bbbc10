package core

import (
	"strings"
	"testing"

	"lsasg/internal/amf"
	"lsasg/internal/skipgraph"
)

// Figure 4 of the paper walks one full DSG transformation: nodes U and V
// communicate at time 8 in skip graph S8 and the algorithm produces S9,
// with specific lists, groups, and timestamps (the paper "assumes" the
// medians M_0 = 2 and M_1 = 5, which we inject via a ScriptedFinder).
//
// Node identifiers are alphabet positions: B=2, D=4, E=5, F=6, G=7, H=8,
// I=9, J=10, U=21, V=22.

const (
	nB = 2
	nD = 4
	nE = 5
	nF = 6
	nG = 7
	nH = 8
	nI = 9
	nJ = 10
	nU = 21
	nV = 22
)

// buildS8 reconstructs the S8 skip graph of Fig 4(b) with its DSG state.
func buildS8(t *testing.T) *DSG {
	t.Helper()
	g := skipgraph.NewFromVectors([]skipgraph.VectorEntry{
		{Key: nB, ID: nB, Vector: "10"},
		{Key: nD, ID: nD, Vector: "11"},
		{Key: nE, ID: nE, Vector: "001"},
		{Key: nF, ID: nF, Vector: "01"},
		{Key: nG, ID: nG, Vector: "10"},
		{Key: nH, ID: nH, Vector: "000"},
		{Key: nI, ID: nI, Vector: "01"},
		{Key: nJ, ID: nJ, Vector: "000"},
		{Key: nU, ID: nU, Vector: "11"},
		{Key: nV, ID: nV, Vector: "001"},
	})
	d := NewFromGraph(g, Config{
		A:      4,
		Seed:   1,
		Finder: &ScriptedFinder{Script: []amf.Value{amf.Finite(2), amf.Finite(5)}},
	})
	set := func(id int64, ts, groups []int64, dom []bool, base int) {
		n := d.NodeByID(id)
		if n == nil {
			t.Fatalf("missing node %d", id)
		}
		d.SetStateForTest(n, ts, groups, dom, base)
	}
	// Timestamps and groups from Fig 4(b); U's group {B,G,D,U} carries id 2
	// (B), V's group {V,E} id 5 (E), H/J id 10, F/I id 6 per §IV-C's
	// example. D flags record that {B,G} formed a 0-subgraph at level 2 and
	// {E,H,J,V} one at level 2, {H,J} at level 3.
	set(nB, []int64{0, 4, 6, 0}, []int64{2, 2, 2, 2}, []bool{false, false, true, false}, 1)
	set(nG, []int64{0, 4, 6, 0}, []int64{2, 2, 2, 7}, []bool{false, false, true, false}, 1)
	set(nD, []int64{0, 4, 4, 0}, []int64{2, 2, 4, 4}, nil, 1)
	set(nU, []int64{0, 2, 2, 0}, []int64{2, 2, 4, 21}, nil, 1)
	set(nE, []int64{0, 0, 0, 5}, []int64{5, 5, 5, 5}, []bool{false, false, true, false}, 3)
	set(nV, []int64{0, 0, 0, 5}, []int64{5, 5, 5, 5}, []bool{false, false, true, true}, 3)
	set(nH, []int64{0, 0, 0, 7}, []int64{10, 10, 10, 10}, []bool{false, false, true, true}, 3)
	set(nJ, []int64{0, 0, 0, 7}, []int64{10, 10, 10, 10}, []bool{false, false, true, true}, 3)
	set(nF, []int64{0, 0, 1, 0}, []int64{6, 6, 6, 6}, nil, 2)
	set(nI, []int64{0, 0, 1, 0}, []int64{6, 6, 6, 6}, nil, 2)
	d.SetClockForTest(7) // the request U→V arrives at time 8
	return d
}

// listIDs returns the sorted ids of the level-`level` list containing id.
func listIDs(d *DSG, id int64, level int) []int64 {
	n := d.NodeByID(id)
	var ids []int64
	for x := n.ListHead(level); x != nil; x = x.Next(level) {
		if !x.IsDummy() {
			ids = append(ids, x.ID())
		}
	}
	return ids
}

func sameIDs(got []int64, want ...int64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// TestFigure4Transformation replays the S8 → S9 transformation and checks
// the resulting structure against Fig 4(c).
func TestFigure4Transformation(t *testing.T) {
	d := buildS8(t)
	res, err := serveRoute(d, nU, nV)
	if err != nil {
		t.Fatalf("Serve(U, V): %v", err)
	}
	if res.Alpha != 0 {
		t.Errorf("alpha = %d, want 0 (the paper: highest common level of U and V is 0)", res.Alpha)
	}

	// S9 level 1: 0-subgraph {D, U, V, E, B, G}, 1-subgraph {F, I, H, J}.
	if got := listIDs(d, nU, 1); !sameIDs(got, nB, nD, nE, nG, nU, nV) {
		t.Errorf("level-1 list of U = %v, want [B D E G U V]", got)
	}
	if got := listIDs(d, nF, 1); !sameIDs(got, nF, nH, nI, nJ) {
		t.Errorf("level-1 list of F = %v, want [F H I J]", got)
	}
	// S9 level 2: {U, V, E} and {B, G, D}; {F, I} and {H, J}.
	if got := listIDs(d, nU, 2); !sameIDs(got, nE, nU, nV) {
		t.Errorf("level-2 list of U = %v, want [E U V]", got)
	}
	if got := listIDs(d, nB, 2); !sameIDs(got, nB, nD, nG) {
		t.Errorf("level-2 list of B = %v, want [B D G]", got)
	}
	if got := listIDs(d, nF, 2); !sameIDs(got, nF, nI) {
		t.Errorf("level-2 list of F = %v, want [F I]", got)
	}
	if got := listIDs(d, nH, 2); !sameIDs(got, nH, nJ) {
		t.Errorf("level-2 list of H = %v, want [H J]", got)
	}
	// S9 level 3: {U, V} directly linked, {E} alone, {B, G}, {D}.
	if got := listIDs(d, nU, 3); !sameIDs(got, nU, nV) {
		t.Errorf("level-3 list of U = %v, want [U V]", got)
	}
	if ok, lvl := d.Graph().DirectlyLinked(d.NodeByID(nU), d.NodeByID(nV)); !ok || lvl != 3 {
		t.Errorf("U-V direct link at level %d (ok=%v), want level 3", lvl, ok)
	}
	if got := listIDs(d, nE, 3); !sameIDs(got, nE) {
		t.Errorf("level-3 list of E = %v, want [E]", got)
	}
	if got := listIDs(d, nB, 3); !sameIDs(got, nB, nG) {
		t.Errorf("level-3 list of B = %v, want [B G] (the D-flag split of gs={B,G,D})", got)
	}
	if got := listIDs(d, nD, 3); !sameIDs(got, nD) {
		t.Errorf("level-3 list of D = %v, want [D]", got)
	}

	// Timestamps of Fig 4(c). Columns are levels 0..3.
	wantTS := map[int64][4]int64{
		nU: {0, 2, 5, 8},
		nV: {0, 2, 5, 8},
		nE: {0, 2, 5, 5},
		nB: {0, 2, 4, 6},
		nG: {0, 2, 4, 6},
		nD: {0, 2, 4, 4},
		nF: {0, 0, 1, 0},
		nI: {0, 0, 1, 0},
		nH: {0, 0, 7, 7},
		nJ: {0, 0, 7, 7},
	}
	for id, want := range wantTS {
		n := d.NodeByID(id)
		for lvl := 0; lvl < 4; lvl++ {
			if id == nF || id == nI {
				if lvl == 3 {
					continue // F and I are singleton below level 3; Fig 4(c) truncates
				}
			}
			if got := d.Timestamp(n, lvl); got != want[lvl] {
				t.Errorf("T[%s][%d] = %d, want %d", nodeName(id), lvl, got, want[lvl])
			}
		}
	}

	// Group ids: the merged group carries u's identifier (21) at levels
	// 0..2 for the pair's lists; {B, G, D} at level 2 takes the left-most
	// member's id (B = 2), per the paper's caption ("the group of node B at
	// level 2 has 3 nodes").
	for _, id := range []int64{nU, nV, nE} {
		if got := d.Group(d.NodeByID(id), 2); got != nU {
			t.Errorf("G[%s][2] = %d, want 21", nodeName(id), got)
		}
	}
	for _, id := range []int64{nB, nG, nD} {
		if got := d.Group(d.NodeByID(id), 2); got != nB {
			t.Errorf("G[%s][2] = %d, want 2 (left-most of split group)", nodeName(id), got)
		}
	}

	if err := d.Graph().Verify(); err != nil {
		t.Errorf("post-transformation Verify: %v", err)
	}
}

// TestFigure4Priorities checks the P1/P2/P3 priority assignment of §IV-C
// on the S8 fixture: P(U)=P(V)=∞, P(D)=P(G)=P(B)=2, P(E)=5, and H/J/F/I
// take band priorities -G·t + T.
func TestFigure4Priorities(t *testing.T) {
	d := buildS8(t)
	u, v := d.NodeByID(nU), d.NodeByID(nV)
	ctx := &d.scratch.transform
	ctx.reset(u, v, 8)
	ctx.alpha = 0
	for _, x := range d.Graph().Nodes() {
		switch o := ctx.add(x, d.state(x)); x {
		case u:
			ctx.ui = o
		case v:
			ctx.vi = o
		}
	}
	ctx.m = len(ctx.ents)
	d.computePriorities(ctx)

	want := map[int64]amf.Value{
		nU: amf.Infinite(),
		nV: amf.Infinite(),
		nB: amf.Finite(2),
		nG: amf.Finite(2),
		nD: amf.Finite(2),
		nE: amf.Finite(5),
		nH: amf.Finite(-10*8 + 0),
		nJ: amf.Finite(-10*8 + 0),
		nF: amf.Finite(-6*8 + 0),
		nI: amf.Finite(-6*8 + 0),
	}
	for id, w := range want {
		o, ok := ctx.ordOf(d.NodeByID(id))
		if !ok {
			t.Fatalf("%s is not a member", nodeName(id))
		}
		if got := ctx.ents[o].pri; got.Cmp(w) != 0 {
			t.Errorf("P(%s) = %v, want %v", nodeName(id), got, w)
		}
	}
}

func nodeName(id int64) string {
	names := map[int64]string{nB: "B", nD: "D", nE: "E", nF: "F", nG: "G",
		nH: "H", nI: "I", nJ: "J", nU: "U", nV: "V"}
	return names[id]
}

// TestFigure4Rendering exercises the tree view on the reconstructed S8 so
// the RenderTopology output format is pinned.
func TestFigure4Rendering(t *testing.T) {
	d := buildS8(t)
	tree := d.Graph().TreeView()
	out := tree.RenderLevels(func(n *skipgraph.Node) string { return nodeName(n.ID()) }, nil)
	wantLines := []string{
		"L0: B D E F G H I J U V",
		"L1: E F H I J V | B D G U",
		"L2: E H J V | F I | B G | D U",
		"L3: H J | E V",
	}
	got := strings.Split(strings.TrimSpace(out), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("rendered %d lines, want %d:\n%s", len(got), len(wantLines), out)
	}
	for i, w := range wantLines {
		if got[i] != w {
			t.Errorf("line %d = %q, want %q", i, got[i], w)
		}
	}
}
