package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"lsasg/internal/skipgraph"
	"lsasg/internal/testkit"
	"lsasg/internal/workingset"
)

// TestDirectLinkAfterRequest (the self-adjusting model's requirement and
// Lemma 4): after every request the pair shares a size-2 list, at a level
// no higher than log_{2a/(a+1)} n plus slack for approximation noise.
func TestDirectLinkAfterRequest(t *testing.T) {
	const n = 64
	for _, a := range []int{2, 4, 8} {
		d := New(n, Config{A: a, Seed: int64(a)})
		rng := rand.New(rand.NewSource(int64(a * 7)))
		bound := math.Log(float64(n)) / math.Log(2*float64(a)/(float64(a)+1))
		for i := 0; i < 150; i++ {
			u, v := int64(rng.Intn(n)), int64(rng.Intn(n))
			if u == v {
				continue
			}
			res, err := serveRoute(d, u, v)
			if err != nil {
				t.Fatal(err)
			}
			if res.DirectLevel < 0 {
				t.Fatalf("a=%d req %d: no direct link", a, i)
			}
			if float64(res.DirectLevel) > bound+3 {
				t.Errorf("a=%d req %d: direct level %d exceeds Lemma 4 bound %.1f+3",
					a, i, res.DirectLevel, bound)
			}
		}
	}
}

// TestHeightBound (Lemma 5): after any transformation the height stays at
// most log_{3/2} n plus slack for dummies added by balance repair.
func TestHeightBound(t *testing.T) {
	for _, n := range []int{16, 64, 200} {
		d := New(n, Config{A: 4, Seed: int64(n)})
		rng := rand.New(rand.NewSource(int64(n + 1)))
		bound := math.Log(float64(n))/math.Log(1.5) + 3
		for i := 0; i < 300; i++ {
			u, v := int64(rng.Intn(n)), int64(rng.Intn(n))
			if u == v {
				continue
			}
			res, err := serveRoute(d, u, v)
			if err != nil {
				t.Fatal(err)
			}
			if float64(res.HeightAfter) > bound {
				t.Errorf("n=%d req %d: height %d > log_1.5 n bound %.1f", n, i, res.HeightAfter, bound)
			}
		}
	}
}

// TestRepeatedPairBecomesCheap: after (u,v) is served once, the next
// routing between them crosses their direct link, so the distance is 0
// intermediates as long as no other request disturbs them.
func TestRepeatedPairBecomesCheap(t *testing.T) {
	d := New(32, Config{A: 4, Seed: 5})
	if _, err := serveRoute(d, 3, 27); err != nil {
		t.Fatal(err)
	}
	res, err := serveRoute(d, 3, 27)
	if err != nil {
		t.Fatal(err)
	}
	if res.RouteDistance != 0 {
		t.Fatalf("repeat distance = %d, want 0", res.RouteDistance)
	}
	if res.Alpha == 0 {
		t.Fatalf("repeat alpha = 0, want the pair's high common level")
	}
}

// TestWorkingSetProperty (Theorem 2): for pairs that communicated before,
// the routing distance stays O(log T_t(u, v)). We drive a skewed workload
// and check distance ≤ c·(log2 T + 1) for a constant c = a + 2.
func TestWorkingSetProperty(t *testing.T) {
	const n = 64
	const a = 4
	d := New(n, Config{A: a, Seed: 11})
	ws := workingset.NewTracker(n)
	rng := rand.New(rand.NewSource(13))
	// A working-set-style workload over a small active set, with churn.
	active := []int{1, 5, 9, 13, 40, 50}
	violations, checked := 0, 0
	for i := 0; i < 600; i++ {
		if rng.Intn(10) == 0 {
			active[rng.Intn(len(active))] = rng.Intn(n)
		}
		u := active[rng.Intn(len(active))]
		v := active[rng.Intn(len(active))]
		if u == v {
			continue
		}
		tNum := ws.WorkingSetNumber(u, v)
		firstTime := tNum == n
		node := d.Graph().ByKey(skipgraph.KeyOf(int64(u)))
		dst := d.Graph().ByKey(skipgraph.KeyOf(int64(v)))
		route, err := d.Graph().Route(node, dst)
		if err != nil {
			t.Fatal(err)
		}
		if !firstTime {
			checked++
			limit := float64(a) * (math.Log2(float64(tNum)) + 2)
			if float64(route.Distance()) > limit {
				violations++
			}
		}
		ws.Record(u, v)
		if _, err := serveRoute(d, int64(u), int64(v)); err != nil {
			t.Fatal(err)
		}
	}
	if checked == 0 {
		t.Fatal("no repeated pairs checked")
	}
	// Allow a small tail from approximation noise: ≤ 2% violations.
	if violations*50 > checked {
		t.Errorf("working-set property violated %d/%d times", violations, checked)
	}
}

// TestTransformationRoundsPolylog (Theorem 3 flavour): the transformation
// cost per request is polylogarithmic in n, far below n.
func TestTransformationRoundsPolylog(t *testing.T) {
	meanRounds := func(n int) float64 {
		d := New(n, Config{A: 4, Seed: int64(n)})
		rng := rand.New(rand.NewSource(int64(n * 3)))
		total := 0
		const reqs = 60
		for i := 0; i < reqs; i++ {
			u, v := int64(rng.Intn(n)), int64(rng.Intn(n))
			if u == v {
				continue
			}
			res, err := serveRoute(d, u, v)
			if err != nil {
				t.Fatal(err)
			}
			total += res.TransformRounds
		}
		return float64(total) / reqs
	}
	small, large := meanRounds(64), meanRounds(512)
	// 8x nodes should cost well under 6x the rounds if polylog.
	if large > 6*small {
		t.Errorf("transformation rounds scale too fast: %.1f → %.1f", small, large)
	}
}

// TestDummiesDestroyedOnNotification: dummies inside l_alpha vanish when a
// transformation touches them (§IV-F), keeping the population bounded.
func TestDummiesDestroyedOnNotification(t *testing.T) {
	const n = 64
	d := New(n, Config{A: 2, Seed: 3}) // a=2 inserts dummies aggressively
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		u, v := int64(rng.Intn(n)), int64(rng.Intn(n))
		if u == v {
			continue
		}
		if _, err := serveRoute(d, u, v); err != nil {
			t.Fatal(err)
		}
	}
	before := d.DummyCount()
	// A request between the extreme keys has alpha 0 with high probability
	// only if their vectors diverge at level 1; force alpha=0 by picking a
	// pair that was never served together... simply serve several fresh
	// pairs and require the dummy count to stay bounded rather than grow.
	for i := 0; i < 20; i++ {
		u, v := int64(rng.Intn(n)), int64(rng.Intn(n))
		if u == v {
			continue
		}
		res, err := serveRoute(d, u, v)
		if err != nil {
			t.Fatal(err)
		}
		if res.Alpha == 0 && res.DummiesDestroyed == 0 && before > 0 {
			// A full-graph transformation must clean every dummy that
			// existed before it.
			t.Errorf("alpha-0 transformation destroyed no dummies (had %d)", before)
		}
		before = d.DummyCount()
	}
	// The bound is for a = 2, the most dummy-hungry setting there is: a list
	// of k members can need k/2 breakers, and every breaker is a member of
	// each list below its own and counts toward the runs there. Keeping every
	// list balanced costs 130 dummies (2 n) at the end of this trace; 5 n
	// leaves room for that and still trips on a population that grows with
	// the number of requests instead of being rebuilt by them.
	if d.DummyCount() > 5*n {
		t.Errorf("dummy population %d grew beyond 5n", d.DummyCount())
	}
}

// TestAddRemoveNodes exercises §IV-G.
func TestAddRemoveNodes(t *testing.T) {
	d := New(16, Config{A: 4, Seed: 8})
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 40; i++ {
		u, v := int64(rng.Intn(16)), int64(rng.Intn(16))
		if u == v {
			continue
		}
		if _, err := serveChecked(d, u, v); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Add(100); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Add(100); err == nil {
		t.Fatal("duplicate Add should fail")
	}
	if err := d.Graph().Verify(); err != nil {
		t.Fatalf("after add: %v", err)
	}
	if _, err := serveChecked(d, 100, 3); err != nil {
		t.Fatalf("serving new node: %v", err)
	}
	if err := d.RemoveNode(100); err != nil {
		t.Fatal(err)
	}
	if err := d.RemoveNode(100); err == nil {
		t.Fatal("double remove should fail")
	}
	if err := d.Graph().Verify(); err != nil {
		t.Fatalf("after remove: %v", err)
	}
	if _, err := serveChecked(d, 0, 15); err != nil {
		t.Fatalf("serving after removal: %v", err)
	}
}

// TestServeErrors: a bad pair leaves the graph and the clock alone. ApplyOp
// reports the route's miss — the skipgraph sentinels the public API maps to
// ErrUnknownKey and ErrDeadNode — in Miss.
func TestServeErrors(t *testing.T) {
	d := New(8, Config{A: 4, Seed: 1})
	if err := d.Crash(5); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name     string
		src, dst int64
		want     error // nil: any error
	}{
		{"unknown src", 99, 0, skipgraph.ErrUnknownKey},
		{"unknown dst", 0, 99, skipgraph.ErrUnknownKey},
		{"self", 3, 3, nil},
		{"dead src", 5, 2, skipgraph.ErrDeadNode},
		{"dead dst", 2, 5, skipgraph.ErrDeadNode},
	} {
		if _, err := serveRoute(d, c.src, c.dst); err == nil || (c.want != nil && !errors.Is(err, c.want)) {
			t.Errorf("ApplyOp(%s) = %v, want %v", c.name, err, c.want)
		}
	}
	if d.Clock() != 0 {
		t.Errorf("rejected requests advanced the clock to %d", d.Clock())
	}
	if ids := testkit.DeadIDs(d.Graph().All()); len(ids) != 1 || ids[0] != 5 {
		t.Errorf("crashed ids after the rejected requests = %v, want [5]: the step repairs no dead endpoint", ids)
	}
}

// TestExactFinderDeterministic: with the exact median finder and a fixed
// seed the run is fully deterministic.
func TestExactFinderDeterministic(t *testing.T) {
	run := func() []int {
		d := New(32, Config{A: 4, Seed: 9, Finder: ExactFinder{}})
		rng := rand.New(rand.NewSource(10))
		var dists []int
		for i := 0; i < 50; i++ {
			u, v := int64(rng.Intn(32)), int64(rng.Intn(32))
			if u == v {
				continue
			}
			res, err := serveRoute(d, u, v)
			if err != nil {
				t.Fatal(err)
			}
			dists = append(dists, res.RouteDistance)
		}
		return dists
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}
