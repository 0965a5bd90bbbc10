package skipgraph_test

import (
	"math/rand"
	"testing"

	"lsasg/internal/core"
	"lsasg/internal/skipgraph"
	"lsasg/internal/workload"
)

// TestScopedScansMatchOracleServed repeats the oracle comparison on the
// topology the adjuster serves from: n = 256 after 3 000 Zipf(1.2)
// adjustments, more dummies than real nodes, most of them in all-dummy runs.
func TestScopedScansMatchOracleServed(t *testing.T) {
	const n = 256
	d := core.New(n, core.Config{A: 4, Seed: 1})
	for _, r := range (workload.Zipf{Seed: 7, S: 1.2}).Generate(n, 3000) {
		d.AdjustAccess(core.RouteOp(int64(r.Src), int64(r.Dst)))
	}
	g := d.Graph()
	if d.DummyCount() < n {
		t.Fatalf("%d dummies for %d real nodes: not the served regime", d.DummyCount(), n)
	}
	rng := rand.New(rand.NewSource(1))
	for range 20 {
		skipgraph.CheckScopedScans(t, g, d.A(), skipgraph.ScanRefs(rng, g))
	}
}

// TestRemovalVerdictsMatchOracleServed holds RemovalKeepsBalance, whose
// walk left stops once the merged run is over-long, to the whole-run walk
// for every dummy of the served graph at n = 512 (3 000 Zipf(1.2)
// adjustments): at a ≤ 4, the a it was built for, no dummy may go; at a = 8
// most may, so both verdicts are compared.
func TestRemovalVerdictsMatchOracleServed(t *testing.T) {
	const n = 512
	d := core.New(n, core.Config{A: 4, Seed: 1})
	for _, r := range (workload.Zipf{Seed: 7, S: 1.2}).Generate(n, 3000) {
		d.AdjustAccess(core.RouteOp(int64(r.Src), int64(r.Dst)))
	}
	if d.DummyCount() < n {
		t.Fatalf("%d dummies for %d real nodes: not the served regime", d.DummyCount(), n)
	}
	kept, removable := 0, 0
	for _, a := range []int{1, 2, 4, 8} {
		r := skipgraph.CheckRemovalVerdicts(t, d.Graph(), a)
		kept, removable = kept+d.DummyCount()-r, removable+r
	}
	if kept == 0 || removable == 0 {
		t.Fatalf("%d dummies kept and %d removable over all a: the test cannot compare both verdicts", kept, removable)
	}
}
