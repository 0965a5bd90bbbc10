package core

import (
	"flag"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

var (
	crashFuzzSeeds  = flag.Int("crashfuzz.seeds", 3, "number of random seeds for the crash fuzz test")
	crashFuzzEvents = flag.Int("crashfuzz.events", 800, "events per crash fuzz seed")
)

// This file extends the churn fuzz with crash failures: ops additionally
// crash live nodes in place ('c') and probe crashed peers ('p', a stale
// client contacting the corpse — the detection that triggers its repair).
// Routes between live nodes run over a graph that may contain dead nodes, so
// they exercise the dead-end rerouting and the in-transform corpse sweep.
// The oracle tracks BOTH populations: the live id set and the set of crashed
// ids not yet repaired (still physically present in every list). After every
// op the dead oracle drops the ids whose node is gone (pruneRepaired) —
// whichever path repaired a corpse (probe, route detection, transform
// sweep) — and the full validator plus the population check, which catches
// a repair of an id the oracle did not hold dead, must pass.

// genCrashFuzzOps builds a random op sequence that is valid when replayed
// from the start. The generator's own membership model assumes every crashed
// id is still probe-able (probes of already-repaired ids are skipped at
// replay time, like any op shrinking made inapplicable).
func genCrashFuzzOps(rng *rand.Rand, n, count int) []fuzzOp {
	live := make([]int64, n)
	for i := range live {
		live[i] = int64(i)
	}
	var crashed []int64
	next := int64(n)
	ops := make([]fuzzOp, 0, count)
	for len(ops) < count {
		switch r := rng.Float64(); {
		case r < 0.60:
			i, j := rng.Intn(len(live)), rng.Intn(len(live))
			if i == j {
				continue
			}
			ops = append(ops, fuzzOp{Kind: 'r', A: live[i], B: live[j]})
		case r < 0.72:
			ops = append(ops, fuzzOp{Kind: 'j', A: next})
			live = append(live, next)
			next++
		case r < 0.80:
			if len(live) <= 3 {
				continue
			}
			i := rng.Intn(len(live))
			ops = append(ops, fuzzOp{Kind: 'l', A: live[i]})
			live = append(live[:i], live[i+1:]...)
		case r < 0.92:
			if len(live) <= 3 {
				continue
			}
			i := rng.Intn(len(live))
			ops = append(ops, fuzzOp{Kind: 'c', A: live[i]})
			crashed = append(crashed, live[i])
			live = append(live[:i], live[i+1:]...)
		default:
			if len(crashed) == 0 {
				continue
			}
			ops = append(ops, fuzzOp{Kind: 'p', A: crashed[rng.Intn(len(crashed))]})
		}
	}
	return ops
}

// runCrashFuzz replays an op sequence against a fresh DSG and the two-set
// oracle, asserting the full validator and population agreement after every
// applied op. Inapplicable ops (possible after shrinking) are skipped. It
// returns the index of the first failing op, or -1.
func runCrashFuzz(n, a int, seed int64, ops []fuzzOp) (int, error) {
	d := New(n, Config{A: a, Seed: seed})
	if err := d.Validate(); err != nil {
		return 0, fmt.Errorf("invalid before any op: %w", err)
	}
	live := make([]int64, n)
	for i := range live {
		live[i] = int64(i)
	}
	var dead []int64 // crashed, not yet repaired — sorted ascending
	find := func(s []int64, id int64) int {
		i := sort.Search(len(s), func(i int) bool { return s[i] >= id })
		if i < len(s) && s[i] == id {
			return i
		}
		return -1
	}
	insert := func(s []int64, id int64) []int64 {
		pos := sort.Search(len(s), func(i int) bool { return s[i] >= id })
		s = append(s, 0)
		copy(s[pos+1:], s[pos:])
		s[pos] = id
		return s
	}
	for i, op := range ops {
		switch op.Kind {
		case 'r':
			if find(live, op.A) < 0 || find(live, op.B) < 0 || op.A == op.B {
				continue
			}
			// Dead nodes count like dummies for the distance allowance: the
			// a-balance invariant exempts them, so they can pad runs until a
			// detection splices them out.
			bound := a*d.Graph().Height() + d.DummyCount() + len(dead)
			res, err := serveRoute(d, op.A, op.B)
			if err != nil {
				return i, fmt.Errorf("%s: %w", op, err)
			}
			if res.RouteDistance > bound {
				return i, fmt.Errorf("%s: distance %d exceeds a·H+dummies+dead = %d", op, res.RouteDistance, bound)
			}
		case 'j':
			if find(live, op.A) >= 0 || find(dead, op.A) >= 0 {
				continue
			}
			if _, err := d.Add(op.A); err != nil {
				return i, fmt.Errorf("%s: %w", op, err)
			}
			live = insert(live, op.A)
		case 'l':
			pos := find(live, op.A)
			if pos < 0 || len(live) <= 3 {
				continue
			}
			if err := d.RemoveNode(op.A); err != nil {
				return i, fmt.Errorf("%s: %w", op, err)
			}
			live = append(live[:pos], live[pos+1:]...)
		case 'c':
			pos := find(live, op.A)
			if pos < 0 || len(live) <= 3 {
				continue
			}
			if err := d.Crash(op.A); err != nil {
				return i, fmt.Errorf("%s: %w", op, err)
			}
			live = append(live[:pos], live[pos+1:]...)
			dead = insert(dead, op.A)
		case 'p':
			if find(dead, op.A) < 0 {
				continue // already repaired by a route detection
			}
			if !d.RepairCrashedID(op.A) {
				return i, fmt.Errorf("%s: corpse %d in oracle but repair declined", op, op.A)
			}
		}
		dead = pruneRepaired(d, dead)
		if err := d.Validate(); err != nil {
			return i, fmt.Errorf("%s: %w", op, err)
		}
		if err := checkCrashOracle(d, live, dead); err != nil {
			return i, fmt.Errorf("%s: %w", op, err)
		}
	}
	return -1, nil
}

// pruneRepaired drops from the dead oracle every id repaired since: gone, or
// rejoined alive by a Put. checkCrashOracle then catches a repair of an id
// the oracle did not hold dead.
func pruneRepaired(d *DSG, dead []int64) []int64 {
	return slices.DeleteFunc(dead, func(id int64) bool {
		n := d.NodeByID(id)
		return n == nil || !n.Dead()
	})
}

// checkCrashOracle compares the DSG's real-node population against the
// merged live+dead oracle and the graph's own dead list against the dead
// oracle.
func checkCrashOracle(d *DSG, live, dead []int64) error {
	want := make([]int64, 0, len(live)+len(dead))
	want = append(want, live...)
	want = append(want, dead...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if got := d.Graph().RealN(); got != len(want) {
		return fmt.Errorf("oracle: %d real nodes, want %d (%d live + %d dead)",
			got, len(want), len(live), len(dead))
	}
	var ids []int64
	for _, x := range d.Graph().Nodes() {
		if !x.IsDummy() {
			ids = append(ids, x.ID())
		}
	}
	for i, id := range ids {
		if id != want[i] {
			return fmt.Errorf("oracle: position %d holds id %d, want %d", i, id, want[i])
		}
	}
	got := d.CrashedIDs()
	if len(got) != len(dead) {
		return fmt.Errorf("oracle: %d crashed ids in graph, want %d", len(got), len(dead))
	}
	for i, id := range got {
		if id != dead[i] {
			return fmt.Errorf("oracle: crashed position %d holds id %d, want %d", i, id, dead[i])
		}
	}
	return nil
}

// TestCrashFuzz is the randomized crash-failure harness: for each seed it
// replays hundreds of random route/join/leave/crash/probe events against the
// two-set oracle, asserting the full-graph validator after every op (so
// every repair path — probe detection, route detection, transform sweep —
// restores the complete invariant set). A failure is shrunk to a minimal
// reproducing sequence before reporting.
func TestCrashFuzz(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz is slow")
	}
	const n = 24
	for _, a := range []int{2, 4} {
		for s := 0; s < *crashFuzzSeeds; s++ {
			seed := int64(2000*a + s)
			t.Run(fmt.Sprintf("a=%d/seed=%d", a, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				ops := genCrashFuzzOps(rng, n, *crashFuzzEvents)
				idx, err := runCrashFuzz(n, a, seed, ops)
				if err == nil {
					return
				}
				min := ddmin(ops, func(ops []fuzzOp) (int, error) { return runCrashFuzz(n, a, seed, ops) }, 400)
				t.Fatalf("op %d failed: %v\nminimal reproduction (n=%d a=%d seed=%d, %d ops):\n%v",
					idx, err, n, a, seed, len(min), min)
			})
		}
	}
}
