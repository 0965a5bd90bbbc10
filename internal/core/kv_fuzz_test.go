package core

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"lsasg/internal/skipgraph"
)

var (
	kvFuzzSeeds  = flag.Int("kvfuzz.seeds", 3, "number of random seeds for the KV fuzz test")
	kvFuzzEvents = flag.Int("kvfuzz.events", 800, "events per KV fuzz seed")
)

// This file extends the crash fuzz with the KV data plane: random
// get/put/delete/scan operations interleaved with the full churn-and-crash
// repertoire (route, join, leave, crash, probe). The oracle is a sorted map
// of live value records — exactly the state a scan must observe — layered
// over the crash fuzz's two-population membership oracle. After every op the
// harness asserts the op's own result (hit/miss, existed, version), the
// full-graph validator, the membership oracle, the version clock, and a
// complete level-0 scan against the sorted-map oracle, so a value leaking
// through a delete, surviving a crash it must not survive, or going missing
// under churn fails immediately. Failures shrink ddmin-style to a minimal
// reproducing sequence before reporting.

// kvFuzzOp is one randomized KV-plane operation. Route/join/leave/crash/
// probe reuse the crash-fuzz semantics; get/put/delete carry (origin, key)
// in (A, B is the key for 'g'/'w'/'d'); scan carries (start, limit) in
// (A, B).
type kvFuzzOp struct {
	Kind byte // 'g' get, 'w' put, 'd' delete, 's' scan, 'r' route, 'j' join, 'l' leave, 'c' crash, 'p' probe
	A, B int64
}

func (op kvFuzzOp) String() string {
	switch op.Kind {
	case 'g':
		return fmt.Sprintf("get(%d→%d)", op.A, op.B)
	case 'w':
		return fmt.Sprintf("put(%d→%d)", op.A, op.B)
	case 'd':
		return fmt.Sprintf("delete(%d→%d)", op.A, op.B)
	case 's':
		return fmt.Sprintf("scan(%d,limit=%d)", op.A, op.B)
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

// pick returns a uniformly random element of s.
func pick(rng *rand.Rand, s []int64) int64 { return s[rng.Intn(len(s))] }

// genKVFuzzOps builds a random KV op sequence that is valid when replayed
// from the start. Keys for point ops are drawn across all three populations
// — live (updates and hits), departed (revival joins and miss reads), and
// crashed (the repair-then-rejoin put path and crash-stop miss reads) — so
// every branch of the totality contract gets traffic.
func genKVFuzzOps(rng *rand.Rand, n, count int) []kvFuzzOp {
	live := make([]int64, n)
	for i := range live {
		live[i] = int64(i)
	}
	var crashed, departed []int64
	next := int64(n)
	// pickKey draws a point-op target: mostly live, sometimes departed or
	// crashed or brand new. fresh mints a new id (the caller decides whether
	// the op makes it live).
	pickKey := func(pLive, pDeparted, pCrashed float64) (id int64, fresh bool) {
		switch r := rng.Float64(); {
		case r < pLive:
			return pick(rng, live), false
		case r < pLive+pDeparted && len(departed) > 0:
			return pick(rng, departed), false
		case r < pLive+pDeparted+pCrashed && len(crashed) > 0:
			return pick(rng, crashed), false
		default:
			id = next
			next++
			return id, true
		}
	}
	drop := func(s []int64, id int64) []int64 {
		for i, x := range s {
			if x == id {
				return append(s[:i], s[i+1:]...)
			}
		}
		return s
	}
	ops := make([]kvFuzzOp, 0, count)
	for len(ops) < count {
		switch r := rng.Float64(); {
		case r < 0.25: // get
			key, _ := pickKey(0.70, 0.12, 0.12)
			ops = append(ops, kvFuzzOp{Kind: 'g', A: pick(rng, live), B: key})
		case r < 0.45: // put: update, revival join, fresh join, or dead repair+rejoin
			key, fresh := pickKey(0.60, 0.15, 0.10)
			ops = append(ops, kvFuzzOp{Kind: 'w', A: pick(rng, live), B: key})
			if !fresh {
				departed = drop(departed, key)
				crashed = drop(crashed, key)
			}
			found := false
			for _, x := range live {
				if x == key {
					found = true
					break
				}
			}
			if !found {
				live = append(live, key)
			}
		case r < 0.55: // delete
			key, fresh := pickKey(0.70, 0.15, 0.15)
			if fresh {
				next-- // a fresh id was never there; make it an absent-key no-op
			}
			if len(live) <= 4 {
				continue
			}
			ops = append(ops, kvFuzzOp{Kind: 'd', A: pick(rng, live), B: key})
			live = drop(live, key)
			crashed = drop(crashed, key)
			departed = append(departed, key)
		case r < 0.65: // scan
			ops = append(ops, kvFuzzOp{Kind: 's', A: int64(rng.Intn(int(next))), B: int64(1 + rng.Intn(8))})
		case r < 0.80: // route
			i, j := rng.Intn(len(live)), rng.Intn(len(live))
			if i == j {
				continue
			}
			ops = append(ops, kvFuzzOp{Kind: 'r', A: live[i], B: live[j]})
		case r < 0.87: // join
			ops = append(ops, kvFuzzOp{Kind: 'j', A: next})
			live = append(live, next)
			next++
		case r < 0.92: // leave
			if len(live) <= 4 {
				continue
			}
			id := pick(rng, live)
			ops = append(ops, kvFuzzOp{Kind: 'l', A: id})
			live = drop(live, id)
			departed = append(departed, id)
		case r < 0.97: // crash
			if len(live) <= 4 {
				continue
			}
			id := pick(rng, live)
			ops = append(ops, kvFuzzOp{Kind: 'c', A: id})
			live = drop(live, id)
			crashed = append(crashed, id)
		default: // probe
			if len(crashed) == 0 {
				continue
			}
			ops = append(ops, kvFuzzOp{Kind: 'p', A: pick(rng, crashed)})
		}
	}
	return ops
}

// kvFuzzValue synthesizes the deterministic payload of the i-th op writing
// key — both the replay and the oracle derive it the same way.
func kvFuzzValue(key int64, i int) []byte {
	return []byte(fmt.Sprintf("v%d.%d", key, i))
}

// runKVFuzz replays an op sequence against a fresh DSG, the two-population
// membership oracle, and the sorted-map value oracle. Inapplicable ops
// (possible after shrinking) are skipped. Returns the index of the first
// failing op, or -1.
func runKVFuzz(n, a int, seed int64, ops []kvFuzzOp) (int, error) {
	d := New(n, Config{A: a, Seed: seed})
	if err := d.Validate(); err != nil {
		return 0, fmt.Errorf("invalid before any op: %w", err)
	}
	live := make([]int64, n)
	for i := range live {
		live[i] = int64(i)
	}
	var dead []int64
	vals := map[int64][]byte{}
	vers := map[int64]int64{}
	var expSeq int64
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
		case 'g':
			if find(live, op.A) < 0 {
				continue
			}
			res, err := d.ApplyOp(Op{Kind: OpGet, Src: op.A, Dst: op.B})
			if err != nil {
				return i, fmt.Errorf("%s: %w", op, err)
			}
			want, ok := vals[op.B]
			if res.Found != ok {
				return i, fmt.Errorf("%s: found=%v, oracle %v", op, res.Found, ok)
			}
			if ok && (!bytes.Equal(res.Value, want) || res.Version != vers[op.B]) {
				return i, fmt.Errorf("%s: read (%q, v%d), oracle (%q, v%d)",
					op, res.Value, res.Version, want, vers[op.B])
			}
		case 'w':
			if find(live, op.A) < 0 {
				continue
			}
			wasLive := find(live, op.B) >= 0
			val := kvFuzzValue(op.B, i)
			res, err := d.ApplyOp(Op{Kind: OpPut, Src: op.A, Dst: op.B, Value: val})
			if err != nil {
				return i, fmt.Errorf("%s: %w", op, err)
			}
			expSeq++
			if res.Version != expSeq {
				return i, fmt.Errorf("%s: version %d, want %d", op, res.Version, expSeq)
			}
			if res.Existed != wasLive {
				return i, fmt.Errorf("%s: existed=%v, oracle %v", op, res.Existed, wasLive)
			}
			if !wasLive {
				live = insert(live, op.B)
			}
			vals[op.B], vers[op.B] = val, expSeq
		case 'd':
			if find(live, op.A) < 0 {
				continue
			}
			wasLive := find(live, op.B) >= 0
			wasDead := find(dead, op.B) >= 0
			if wasLive && len(live) <= 3 {
				continue
			}
			res, err := d.ApplyOp(Op{Kind: OpDelete, Src: op.A, Dst: op.B})
			if err != nil {
				return i, fmt.Errorf("%s: %w", op, err)
			}
			if res.Existed != (wasLive || wasDead) {
				return i, fmt.Errorf("%s: existed=%v, oracle live=%v dead=%v", op, res.Existed, wasLive, wasDead)
			}
			if wasLive {
				live = append(live[:find(live, op.B)], live[find(live, op.B)+1:]...)
			}
			delete(vals, op.B)
			delete(vers, op.B)
		case 's':
			res, err := d.ApplyOp(Op{Kind: OpScan, Dst: op.A, Limit: int(op.B)})
			if err != nil {
				return i, fmt.Errorf("%s: %w", op, err)
			}
			if err := checkScan(res.Entries, op.A, int(op.B), vals, vers); err != nil {
				return i, fmt.Errorf("%s: %w", op, err)
			}
		case 'r':
			if find(live, op.A) < 0 || find(live, op.B) < 0 || op.A == op.B {
				continue
			}
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
			delete(vals, op.A)
			delete(vers, op.A)
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
			// Crash-stop: the record is unreadable now and lost at repair.
			delete(vals, op.A)
			delete(vers, op.A)
		case 'p':
			if find(dead, op.A) < 0 {
				continue
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
		if got := d.KVVersion(); got != expSeq {
			return i, fmt.Errorf("%s: version clock %d, want %d", op, got, expSeq)
		}
		// The master check: a full level-0 scan must read back exactly the
		// sorted-map oracle — every live record, no deleted/crashed leftovers.
		full := d.Graph().ScanFrom(skipgraph.KeyOf(0), len(vals)+1)
		if err := checkScan(full, 0, len(vals)+1, vals, vers); err != nil {
			return i, fmt.Errorf("%s: full scan: %w", op, err)
		}
		if len(full) != len(vals) {
			return i, fmt.Errorf("%s: full scan returned %d records, oracle holds %d", op, len(full), len(vals))
		}
	}
	return -1, nil
}

// checkScan compares scan output against the sorted-map oracle restricted
// to keys ≥ start, truncated at limit.
func checkScan(got []skipgraph.Entry, start int64, limit int, vals map[int64][]byte, vers map[int64]int64) error {
	var want []int64
	for k := range vals {
		if k >= start {
			want = append(want, k)
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if limit < len(want) {
		want = want[:limit]
	}
	if len(got) != len(want) {
		return fmt.Errorf("scan returned %d entries, oracle expects %d", len(got), len(want))
	}
	for i, e := range got {
		if e.ID != want[i] {
			return fmt.Errorf("scan position %d holds key %d, oracle expects %d", i, e.ID, want[i])
		}
		if !bytes.Equal(e.Value, vals[e.ID]) || e.Version != vers[e.ID] {
			return fmt.Errorf("scan key %d holds (%q, v%d), oracle (%q, v%d)",
				e.ID, e.Value, e.Version, vals[e.ID], vers[e.ID])
		}
	}
	return nil
}

// TestKVFuzz is the randomized KV data-plane harness: for each seed it
// replays hundreds of random get/put/delete/scan events interleaved with
// churn and crash failures against the sorted-map oracle, asserting op
// results, the full-graph validator, the version clock, and a complete
// scan-vs-oracle comparison after every op. A failure is shrunk to a
// minimal reproducing sequence before reporting.
func TestKVFuzz(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz is slow")
	}
	const n = 24
	for _, a := range []int{2, 4} {
		for s := 0; s < *kvFuzzSeeds; s++ {
			seed := int64(9000*a + s)
			t.Run(fmt.Sprintf("a=%d/seed=%d", a, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				ops := genKVFuzzOps(rng, n, *kvFuzzEvents)
				idx, err := runKVFuzz(n, a, seed, ops)
				if err == nil {
					return
				}
				min := ddmin(ops, func(ops []kvFuzzOp) (int, error) { return runKVFuzz(n, a, seed, ops) }, 400)
				t.Fatalf("op %d failed: %v\nminimal reproduction (n=%d a=%d seed=%d, %d ops):\n%v",
					idx, err, n, a, seed, len(min), min)
			})
		}
	}
}
