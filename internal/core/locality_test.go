package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"lsasg/internal/skipgraph"
	"lsasg/internal/workload"
)

// TestLocalRepairCertifiedGlobally is the differential test for the
// tentpole claim: joins, leaves, and routed requests repair a-balance only
// over their recorded dirty lists, yet after every single event the
// *global* validator — whole-graph Verify plus whole-graph
// BalanceViolations plus state bijection — must certify the result. Any
// list the local paths fail to report as dirty shows up here as a leaked
// violation. (TestChurnFuzz covers the same contract at larger scale with
// shrinking; this test is deterministic, quick, and not skipped in -short.)
func TestLocalRepairCertifiedGlobally(t *testing.T) {
	for _, a := range []int{2, 4} {
		seed := int64(31 + a)
		rng := rand.New(rand.NewSource(seed))
		d := New(20, Config{A: a, Seed: seed})
		if err := d.Validate(); err != nil {
			t.Fatalf("a=%d: invalid before any op: %v", a, err)
		}
		live := make([]int64, 20)
		for i := range live {
			live[i] = int64(i)
		}
		next := int64(20)
		for op := 0; op < 250; op++ {
			switch r := rng.Float64(); {
			case r < 0.5:
				i, j := rng.Intn(len(live)), rng.Intn(len(live))
				if i == j {
					continue
				}
				if _, err := d.Serve(live[i], live[j]); err != nil {
					t.Fatalf("a=%d op %d: serve(%d,%d): %v", a, op, live[i], live[j], err)
				}
			case r < 0.8:
				if _, err := d.Add(next); err != nil {
					t.Fatalf("a=%d op %d: add(%d): %v", a, op, next, err)
				}
				live = append(live, next)
				next++
			default:
				if len(live) <= 2 {
					continue
				}
				i := rng.Intn(len(live))
				if err := d.RemoveNode(live[i]); err != nil {
					t.Fatalf("a=%d op %d: remove(%d): %v", a, op, live[i], err)
				}
				live = append(live[:i], live[i+1:]...)
			}
			if err := d.Validate(); err != nil {
				t.Fatalf("a=%d op %d: global validator rejects locally repaired graph: %v", a, op, err)
			}
		}
	}
}

// TestScopedRepairLeavesNoWorkForGlobal pins the fixed-point contract from
// the other side: right after a scoped repair, a full global RepairBalance
// must find nothing to insert — every violation was inside the dirty set.
// (It may still garbage-collect dummies whose redundancy predates the
// scoped op's dirty window, so only insertions must be zero.)
func TestScopedRepairLeavesNoWorkForGlobal(t *testing.T) {
	d := New(48, Config{A: 2, Seed: 77})
	next := int64(48)
	rng := rand.New(rand.NewSource(5))
	for op := 0; op < 60; op++ {
		if op%2 == 0 {
			if _, err := d.Add(next); err != nil {
				t.Fatal(err)
			}
			next++
		} else {
			if err := d.RemoveNode(rng.Int63n(next - 1)); err != nil {
				// The random victim may already be gone; pick the newest.
				if err2 := d.RemoveNode(next - 1); err2 != nil {
					t.Fatalf("op %d: %v / %v", op, err, err2)
				}
				next--
			}
		}
		if ins, _ := d.RepairBalance(); ins != 0 {
			t.Fatalf("op %d: global repair inserted %d dummies after scoped repair", op, ins)
		}
	}
}

// TestScopedRepairMatchesOracle holds the one request step to a per-op
// standard, not a per-end-state one: a graph from New is a-balanced, and
// after every single Serve of a long trace — route, transformation, scoped
// repair of its dirty set, and no repair call on the caller's side — the
// global validator accepts the graph. A run the global RepairBalance would
// still be needed for is a list the transformation or the scoped repair
// failed to balance or to report dirty.
func TestScopedRepairMatchesOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("long traces")
	}
	for _, c := range []struct {
		prefix string
		gen    workload.Generator
		reqs   int
		sizes  []int
	}{
		{"", workload.Zipf{Seed: 7, S: 1.2}, 3000, []int{128, 256, 512}},
		{"uniform/", workload.Uniform{Seed: 7}, 2000, []int{128, 512}},
		{"adversarial/", workload.Adversarial{Seed: 7}, 2000, []int{128, 512}},
	} {
		for _, n := range c.sizes {
			for _, a := range []int{2, 4} {
				t.Run(fmt.Sprintf("%sn=%d/a=%d", c.prefix, n, a), func(t *testing.T) {
					t.Parallel() // independent graphs; the traces are long
					d := New(n, Config{A: a, Seed: 1})
					if err := d.Validate(); err != nil {
						t.Fatalf("New: %v", err)
					}
					for i, r := range c.gen.Generate(n, c.reqs) {
						if _, err := d.Serve(int64(r.Src), int64(r.Dst)); err != nil {
							t.Fatal(err)
						}
						if err := d.Validate(); err != nil {
							t.Fatalf("op %d: the step left %v", i, err)
						}
					}
				})
			}
		}
	}
}

// unreportedRegionViolations is the oracle for what a transformation hands
// the scoped repair. It scans the whole graph — no dirty record involved —
// right after a transformation for (u, ·) at level alpha and returns the
// a-balance violations inside the region the transformation rebuilt (the
// lists at levels ≥ alpha under u's alpha-bit prefix) that d.pending does
// not report as a Whole list. The transformation balances the region as it
// builds it and reports the one kind of list it could not — a run whose
// breaker found no key — so the result must be empty.
func unreportedRegionViolations(d *DSG, u *skipgraph.Node, alpha int) []skipgraph.BalanceViolation {
	var out []skipgraph.BalanceViolation
	for _, v := range d.g.BalanceViolations(d.cfg.A) {
		if v.Level < alpha || skipgraph.CommonPrefixLen(v.Start, u) < alpha {
			continue
		}
		whole := skipgraph.ListRef{Node: v.Start.ListHead(v.Level), Level: int32(v.Level), Whole: true}
		if !slices.Contains(d.pending, whole) {
			out = append(out, v)
		}
	}
	return out
}

// transformBare is Adjust up to its scoped repair, for the tests of the
// contract between the two halves: they inspect the graph and d.pending as
// the transformation left them, then call d.repairPending() as Adjust does.
func transformBare(t *testing.T, d *DSG, uid, vid int64) AdjustResult {
	t.Helper()
	u, v, err := d.pair(uid, vid)
	if err != nil {
		t.Fatal(err)
	}
	d.clock++
	return d.transform(u, v, d.clock)
}

// TestTransformLeavesRegionBalanced pins the transformation's own half of
// that contract, the one that lets the repair skip the rebuilt region: a
// bare transformation, before any scoped repair has run, leaves no a-balance
// violation at or above alpha in the lists it rebuilt. What its dirty
// record may still hold are knock-ons below alpha, where a fresh dummy
// joined lists the transformation did not rebuild; those are the scoped
// repair's to chase.
func TestTransformLeavesRegionBalanced(t *testing.T) {
	const n = 128
	for _, a := range []int{2, 3, 4, 8} {
		reqs := 400
		if a == 2 || a == 4 {
			reqs = 3000
		}
		d := New(n, Config{A: a, Seed: int64(a)})
		for i, r := range (workload.Zipf{Seed: 5, S: 1.2}).Generate(n, reqs) {
			res := transformBare(t, d, int64(r.Src), int64(r.Dst))
			if viols := unreportedRegionViolations(d, d.NodeByID(int64(r.Src)), res.Alpha); len(viols) > 0 {
				t.Fatalf("a=%d request %d (alpha %d): transformed region left unbalanced: %s", a, i, res.Alpha, viols[0])
			}
			d.repairPending()
		}
	}
}

// TestUnplacedBreakerIsStillRepaired drives the one case in which a rebuilt
// list is handed to the repair after all. Every gap between two real keys is
// packed with bit-less dummies on the bisection path of the key search
// (minors 2²⁹ … 2²), so the first breaker placed behind a real node lands on
// minor 2, the next on 1, and the third — which the bottom-up balance pass
// asks for when the same node ends a run at a third level — finds the gap
// full: makeDummy fails. The transformation must report that list whole, and
// the scoped repair, which can respread a full gap, must leave a graph the
// global validator accepts after every op.
func TestUnplacedBreakerIsStillRepaired(t *testing.T) {
	const n, reqs = 32, 100
	for seed := int64(1); seed <= 3; seed++ {
		d := New(n, Config{A: 2, Seed: seed})
		for p := int64(0); p < n; p++ {
			for k := 2; k <= 29; k++ {
				key := skipgraph.Key{Primary: p, Minor: 1 << k}
				if d.g.ByKey(key) != nil {
					continue
				}
				dm := newDummy(key, d.nextDummyID, 0)
				d.nextDummyID++
				d.g.SpliceIn(dm)
				d.dummyCount++
			}
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("seed %d: packed graph invalid: %v", seed, err)
		}
		unplaced := 0
		for i, r := range (workload.Zipf{Seed: seed, S: 1.2}).Generate(n, reqs) {
			res := transformBare(t, d, int64(r.Src), int64(r.Dst))
			for _, ref := range d.pending {
				if ref.Whole {
					unplaced++
				}
			}
			if viols := unreportedRegionViolations(d, d.NodeByID(int64(r.Src)), res.Alpha); len(viols) > 0 {
				t.Fatalf("seed %d request %d: a run the transformation left is not in its dirty record: %s", seed, i, viols[0])
			}
			d.repairPending()
			if err := d.Validate(); err != nil {
				t.Fatalf("seed %d request %d: %v", seed, i, err)
			}
		}
		if unplaced == 0 {
			t.Fatalf("seed %d: no breaker went unplaced; the test no longer reaches its case", seed)
		}
	}
}

// TestLocalityWorkCounters checks the E16 instrumentation: the counters
// advance on membership events and their per-event magnitude stays far
// below the node count — the direct signature of locality.
func TestLocalityWorkCounters(t *testing.T) {
	const n = 512
	d := New(n, Config{A: 4, Seed: 3})
	j0, r0 := d.LocalityWork()
	const events = 40
	for i := int64(0); i < events; i++ {
		if _, err := d.Add(int64(n) + i); err != nil {
			t.Fatal(err)
		}
	}
	j1, r1 := d.LocalityWork()
	if j1 <= j0 {
		t.Fatalf("join counter did not advance: %d -> %d", j0, j1)
	}
	if r1 < r0 {
		t.Fatalf("repair counter went backwards: %d -> %d", r0, r1)
	}
	perEvent := float64((j1-j0)+(r1-r0)) / events
	if perEvent >= n/2 {
		t.Fatalf("per-join work %.1f is not local for n=%d", perEvent, n)
	}
}
