package core

import (
	"testing"

	"lsasg/internal/skipgraph"
	"lsasg/internal/workload"
)

// TestRecycledDummiesAreUnreachable holds the free list to its op-boundary
// rule on the served regime — 2 000 Zipf(1.2) routes at n = 512, where
// every op destroys and creates dummies. After every op nothing is left
// retired, every free record is out of the graph and reached by no level-0
// walk, and no record was handed out again inside the op that retired it: a
// node that was a dummy in the graph before the op and is one after is the
// same dummy, with the same identifier. Records do get reused — the test
// fails if none ever is.
func TestRecycledDummiesAreUnreachable(t *testing.T) {
	const n, ops = 512, 2000
	d := New(n, Config{A: 4, Seed: 1})
	ids := make(map[*skipgraph.Node]int64)
	wasFree := make(map[*skipgraph.Node]bool)
	inGraph := make(map[*skipgraph.Node]bool)
	reused := 0
	for i, r := range (workload.Zipf{Seed: 3, S: 1.2}).Generate(n, ops) {
		clear(ids)
		clear(wasFree)
		for x := range d.g.All() {
			if x.IsDummy() {
				ids[x] = x.ID()
			}
		}
		for _, rec := range d.free {
			wasFree[&rec.n] = true
		}
		if _, err := d.ApplyOp(RouteOp(int64(r.Src), int64(r.Dst))); err != nil {
			t.Fatal(err)
		}
		if len(d.retired) != 0 {
			t.Fatalf("op %d: %d records still retired after the op", i, len(d.retired))
		}
		clear(inGraph)
		for x := range d.g.All() {
			inGraph[x] = true
			if id, ok := ids[x]; ok && x.ID() != id {
				t.Fatalf("op %d: dummy %d became dummy %d within the op that retired it", i, id, x.ID())
			}
			if wasFree[x] {
				reused++
			}
		}
		for _, rec := range d.free {
			if d.g.Contains(&rec.n) || inGraph[&rec.n] {
				t.Fatalf("op %d: free record %v is in the graph", i, &rec.n)
			}
		}
	}
	if reused == 0 {
		t.Fatal("no record was ever reused: the free list is not in use")
	}
	t.Logf("%d records reused over %d ops, %d free at the end", reused, ops, len(d.free))
}
