package core

import (
	"flag"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

var (
	fuzzSeeds  = flag.Int("churnfuzz.seeds", 3, "number of random seeds for the churn fuzz test")
	fuzzEvents = flag.Int("churnfuzz.events", 1200, "events per churn fuzz seed")
)

// fuzzOp is one randomized operation against the DSG under test. The crash
// fuzz (crash_fuzz_test.go) reuses it with two extra kinds.
type fuzzOp struct {
	Kind byte  // 'r' route, 'j' join, 'l' leave, 'c' crash, 'p' probe corpse
	A, B int64 // route endpoints, or the subject id in A
}

func (op fuzzOp) String() string {
	switch op.Kind {
	case 'r':
		return fmt.Sprintf("route(%d,%d)", op.A, op.B)
	case 'j':
		return fmt.Sprintf("join(%d)", op.A)
	case 'c':
		return fmt.Sprintf("crash(%d)", op.A)
	case 'p':
		return fmt.Sprintf("probe(%d)", op.A)
	default:
		return fmt.Sprintf("leave(%d)", op.A)
	}
}

// genFuzzOps builds a random op sequence that is valid when replayed from
// the start: routes touch live ids, joins mint fresh ids, leaves keep the
// population above two.
func genFuzzOps(rng *rand.Rand, n, count int) []fuzzOp {
	live := make([]int64, n)
	for i := range live {
		live[i] = int64(i)
	}
	next := int64(n)
	ops := make([]fuzzOp, 0, count)
	for len(ops) < count {
		switch r := rng.Float64(); {
		case r < 0.70:
			i, j := rng.Intn(len(live)), rng.Intn(len(live))
			if i == j {
				continue
			}
			ops = append(ops, fuzzOp{Kind: 'r', A: live[i], B: live[j]})
		case r < 0.85:
			ops = append(ops, fuzzOp{Kind: 'j', A: next})
			live = append(live, next)
			next++
		default:
			if len(live) <= 2 {
				continue
			}
			i := rng.Intn(len(live))
			ops = append(ops, fuzzOp{Kind: 'l', A: live[i]})
			live = append(live[:i], live[i+1:]...)
		}
	}
	return ops
}

// runFuzz replays an op sequence against a fresh DSG and a sorted-slice
// oracle of the live id set, asserting the full-graph validator and the
// oracle agreement after every applied op. Ops that are inapplicable in the
// current membership (possible after shrinking removed an op they depended
// on) are skipped, so any subsequence replays deterministically. It returns
// the index of the first failing op, or -1.
func runFuzz(n int, a int, seed int64, ops []fuzzOp) (int, error) {
	d := New(n, Config{A: a, Seed: seed})
	if err := d.Validate(); err != nil {
		return 0, fmt.Errorf("invalid before any op: %w", err)
	}
	oracle := make([]int64, n) // sorted live real ids
	for i := range oracle {
		oracle[i] = int64(i)
	}
	find := func(id int64) int {
		i := sort.Search(len(oracle), func(i int) bool { return oracle[i] >= id })
		if i < len(oracle) && oracle[i] == id {
			return i
		}
		return -1
	}
	for i, op := range ops {
		switch op.Kind {
		case 'r':
			if find(op.A) < 0 || find(op.B) < 0 || op.A == op.B {
				continue // inapplicable after shrinking
			}
			// The worst-case bound is a·H over real nodes; dummy hops come
			// on top (all-dummy runs are exempt from a-balance), so the
			// population is the sound allowance.
			bound := a*d.Graph().Height() + d.DummyCount()
			res, err := serveRoute(d, op.A, op.B)
			if err != nil {
				return i, fmt.Errorf("%s: %w", op, err)
			}
			if res.RouteDistance > bound {
				return i, fmt.Errorf("%s: distance %d exceeds a·H+dummies = %d", op, res.RouteDistance, bound)
			}
		case 'j':
			if find(op.A) >= 0 {
				continue
			}
			if _, err := d.Add(op.A); err != nil {
				return i, fmt.Errorf("%s: %w", op, err)
			}
			pos := sort.Search(len(oracle), func(i int) bool { return oracle[i] >= op.A })
			oracle = append(oracle, 0)
			copy(oracle[pos+1:], oracle[pos:])
			oracle[pos] = op.A
		case 'l':
			pos := find(op.A)
			if pos < 0 || len(oracle) <= 2 {
				continue
			}
			if err := d.RemoveNode(op.A); err != nil {
				return i, fmt.Errorf("%s: %w", op, err)
			}
			oracle = append(oracle[:pos], oracle[pos+1:]...)
		}
		if err := d.Validate(); err != nil {
			return i, fmt.Errorf("%s: %w", op, err)
		}
		if err := checkOracle(d, oracle); err != nil {
			return i, fmt.Errorf("%s: %w", op, err)
		}
	}
	return -1, nil
}

// checkOracle compares the DSG's real-node population against the sorted
// oracle slice: same size, same ids, same key order.
func checkOracle(d *DSG, oracle []int64) error {
	if got := d.Graph().RealN(); got != len(oracle) {
		return fmt.Errorf("oracle: %d real nodes, want %d", got, len(oracle))
	}
	var ids []int64
	for _, x := range d.Graph().Nodes() {
		if !x.IsDummy() {
			ids = append(ids, x.ID())
		}
	}
	for i, id := range ids {
		if id != oracle[i] {
			return fmt.Errorf("oracle: position %d holds id %d, want %d", i, id, oracle[i])
		}
	}
	for _, id := range oracle {
		if d.NodeByID(id) == nil {
			return fmt.Errorf("oracle: live id %d not found by key", id)
		}
	}
	return nil
}

// TestChurnFuzz is the randomized churn harness: for each seed it replays
// 1000+ random route/join/leave events against a sorted-slice oracle,
// asserting the full-graph validator after every op. A failure is shrunk
// to a minimal reproducing sequence before reporting.
func TestChurnFuzz(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz is slow")
	}
	const n = 24
	for _, a := range []int{2, 4} {
		for s := 0; s < *fuzzSeeds; s++ {
			seed := int64(1000*a + s)
			t.Run(fmt.Sprintf("a=%d/seed=%d", a, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				ops := genFuzzOps(rng, n, *fuzzEvents)
				idx, err := runFuzz(n, a, seed, ops)
				if err == nil {
					return
				}
				min := ddmin(ops, func(ops []fuzzOp) (int, error) { return runFuzz(n, a, seed, ops) }, 400)
				t.Fatalf("op %d failed: %v\nminimal reproduction (n=%d a=%d seed=%d, %d ops):\n%v",
					idx, err, n, a, seed, len(min), min)
			})
		}
	}
}

// parseFuzzOps reads a sequence in the form a failing TestChurnFuzz prints
// it, so a shrunk reproduction can be pasted in as a regression case.
func parseFuzzOps(t *testing.T, s string) []fuzzOp {
	var ops []fuzzOp
	for _, f := range strings.Fields(s) {
		op, verb := fuzzOp{}, f[:strings.IndexByte(f, '(')]
		op.Kind = map[string]byte{"route": 'r', "join": 'j', "leave": 'l'}[verb]
		n, _ := fmt.Sscanf(f[len(verb):], "(%d,%d)", &op.A, &op.B)
		if op.Kind == 0 || n < 1 || op.String() != f {
			t.Fatalf("bad fuzz op %q", f)
		}
		ops = append(ops, op)
	}
	return ops
}

// TestChurnFuzzKeySlotRegression replays the shrunk failure of a = 2 / seed
// 2024 (151 of its 964 ops): by join(43) the breakers right of node 42 sat on
// 42+1, 42+2, 42+3 and 42+4, the level-0 run 42, 42+1, 42+2 needed one more
// between its members, and neither the scoped nor the global repair could
// place it because no key was free there. breakRun now respreads the dummies
// of a primary whose gap has filled.
func TestChurnFuzzKeySlotRegression(t *testing.T) {
	ops := parseFuzzOps(t, `
	join(24) route(3,13) route(5,19) route(10,18) leave(11) route(10,17) route(17,0) join(25) join(26)
	route(12,26) route(22,12) route(10,17) route(26,10) join(27) route(23,14) leave(18) route(21,16)
	route(13,27) route(1,8) route(9,26) route(8,4) route(26,20) leave(13) route(21,7) route(14,8)
	route(5,19) route(9,12) route(3,19) route(2,7) route(5,12) leave(19) route(0,22) route(24,27)
	route(23,9) route(6,23) route(26,23) route(24,5) leave(20) route(25,4) leave(23) route(1,3)
	route(24,12) leave(27) route(10,7) leave(21) route(17,0) route(3,22) leave(2) route(1,8)
	route(1,6) join(28) route(24,0) route(5,9) route(7,17) route(24,1) route(3,8) route(6,14)
	route(4,6) route(16,0) route(9,5) leave(26) route(24,16) route(4,5) join(29) route(28,12) leave(0)
	route(29,8) leave(29) leave(14) route(9,1) join(30) route(8,1) route(3,9) leave(12) join(31)
	leave(24) route(16,17) route(7,30) join(34) route(9,1) route(28,16) route(7,30) route(22,28)
	route(10,16) route(25,32) route(32,4) route(1,7) route(30,28) route(10,16) route(25,22)
	route(10,34) route(32,9) leave(3) route(30,28) route(34,6) join(35) leave(10) leave(28) leave(30)
	join(36) leave(15) route(32,25) route(32,25) route(32,22) leave(8) route(32,34) route(9,4)
	route(36,34) route(34,17) join(37) route(7,31) route(34,37) leave(25) route(36,4) leave(4)
	route(1,16) leave(7) leave(22) route(37,16) route(9,16) route(37,16) route(16,34) route(36,16)
	route(37,16) leave(37) leave(35) route(31,17) route(31,32) route(32,16) route(32,16) route(34,32)
	leave(1) join(38) route(32,31) join(39) leave(36) leave(31) route(38,34) route(17,39) join(40)
	route(6,5) join(41) route(39,40) leave(32) route(34,41) route(9,39) route(9,6) leave(9) join(42)
	join(43) join(183)`)
	if idx, err := runFuzz(24, 2, 2024, ops); err != nil {
		t.Fatalf("op %d of %d failed: %v", idx, len(ops), err)
	}
}
