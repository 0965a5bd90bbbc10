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
