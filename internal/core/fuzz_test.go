package core

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unicode"

	"lsasg/internal/skipgraph"
	"lsasg/internal/testkit"
)

// The randomized harness: one op type, one runner and one oracle, fed by
// three mixes of random sequences. The churn mix routes, joins and leaves;
// the crash mix adds crashes in place ('c') and probes of crashed peers
// ('p', a stale client contacting the corpse — the detection that triggers
// its repair), so routes between live nodes run over a graph that may hold
// dead nodes and exercise the dead-end rerouting and the in-transform corpse
// sweep; the KV mix interleaves get/put/delete/scan with all of that.
//
// The oracle is a testkit.KV model of the key space: the live keys, the
// crashed keys not yet repaired (still physically present in every list),
// and every live key's record. After every applied op the runner drops from
// the model the corpses the graph no longer holds — whichever path repaired
// them: probe, route detection, transform sweep, a Put or Delete of the key —
// and asserts the op's own result (a route's success and its distance within
// a·H + dummies + corpses; a read's hit, value and version; a write's
// existed flag and version), the full-graph validator, the population (the
// real nodes in key order are the live and the crashed keys, every live key
// is found by NodeByID, and the dead nodes are exactly the corpses), the
// version clock, and a complete level-0 scan against the model — so a value
// leaking through a delete, surviving a crash it must not survive, or going
// missing under churn fails at once. A failure is shrunk by testkit.Ddmin to
// a minimal reproducing sequence before it is reported; parseFuzzOps reads
// that reproduction back as a regression case.

// fuzzOp is one randomized operation against the DSG under test. A route
// carries its endpoints in (A, B); a get, put or delete its origin and key;
// a scan its start key and limit; a join, leave, crash or probe its subject
// in A.
type fuzzOp struct {
	Kind byte // 'g' get, 'w' put, 'd' delete, 's' scan, 'r' route, 'j' join, 'l' leave, 'c' crash, 'p' probe
	A, B int64
}

// fuzzVerbs names each op kind as String prints it.
var fuzzVerbs = map[byte]string{
	'g': "get", 'w': "put", 'd': "delete", 's': "scan", 'r': "route",
	'j': "join", 'l': "leave", 'c': "crash", 'p': "probe",
}

func (op fuzzOp) String() string {
	verb := fuzzVerbs[op.Kind]
	switch op.Kind {
	case 'g', 'w', 'd':
		return fmt.Sprintf("%s(%d→%d)", verb, op.A, op.B)
	case 's':
		return fmt.Sprintf("%s(%d,limit=%d)", verb, op.A, op.B)
	case 'r':
		return fmt.Sprintf("%s(%d,%d)", verb, op.A, op.B)
	default:
		return fmt.Sprintf("%s(%d)", verb, op.A)
	}
}

// parseFuzzOps reads a sequence of any mix as a failing fuzz test prints it
// (String's forms, space-separated, brackets optional), so a shrunk
// reproduction can be pasted in as a regression case.
func parseFuzzOps(t *testing.T, s string) []fuzzOp {
	t.Helper()
	var ops []fuzzOp
	for _, f := range strings.Fields(strings.Trim(strings.TrimSpace(s), "[]")) {
		verb, args, _ := strings.Cut(f, "(")
		var op fuzzOp
		for kind, v := range fuzzVerbs {
			if v == verb {
				op.Kind = kind
			}
		}
		// Read the numbers whatever separates them; the round trip below
		// rejects a malformed op.
		nums := strings.FieldsFunc(args, func(r rune) bool { return r != '-' && !unicode.IsDigit(r) })
		fmt.Sscan(strings.Join(nums, " "), &op.A, &op.B)
		if op.Kind == 0 || op.String() != f {
			t.Fatalf("bad fuzz op %q", f)
		}
		ops = append(ops, op)
	}
	return ops
}

// fuzzMix is one family of random op sequences: how they are drawn, the
// population floor of their replay, and the seeds and length a test runs.
type fuzzMix struct {
	// floor is the live population a leave, a crash or a delete of a live
	// key must leave above; the op is skipped otherwise.
	floor int
	// draws maps a uniform draw to an op kind by cumulative threshold. The
	// KV mix has none: genKVFuzzOps draws its own.
	draws         []fuzzDraw
	seeds, events *int
	// seedBase·a + s is the seed of run s at balance parameter a.
	seedBase int64
}

// fuzzDraw is one row of a mix table: a draw below upTo, and at or above the
// previous row's, asks for an op of kind.
type fuzzDraw struct {
	upTo float64
	kind byte
}

var (
	churnMix = &fuzzMix{
		floor:    2,
		draws:    []fuzzDraw{{0.70, 'r'}, {0.85, 'j'}, {1, 'l'}},
		seeds:    flag.Int("churnfuzz.seeds", 3, "number of random seeds for the churn fuzz test"),
		events:   flag.Int("churnfuzz.events", 1200, "events per churn fuzz seed"),
		seedBase: 1000,
	}
	crashMix = &fuzzMix{
		floor:    3,
		draws:    []fuzzDraw{{0.60, 'r'}, {0.72, 'j'}, {0.80, 'l'}, {0.92, 'c'}, {1, 'p'}},
		seeds:    flag.Int("crashfuzz.seeds", 3, "number of random seeds for the crash fuzz test"),
		events:   flag.Int("crashfuzz.events", 800, "events per crash fuzz seed"),
		seedBase: 2000,
	}
	kvMix = &fuzzMix{
		floor:    3,
		seeds:    flag.Int("kvfuzz.seeds", 3, "number of random seeds for the KV fuzz test"),
		events:   flag.Int("kvfuzz.events", 800, "events per KV fuzz seed"),
		seedBase: 9000,
	}
)

// gen builds a random op sequence of the mix that is valid when replayed
// from the start: routes touch two distinct live ids, joins mint fresh ids,
// leaves and crashes keep the population above the floor, and probes contact
// a crashed id. The generator assumes every crashed id is still probe-able;
// probes of ids repaired meanwhile are skipped at replay time, like any op
// shrinking made inapplicable.
func (mx *fuzzMix) gen(rng *rand.Rand, n, count int) []fuzzOp {
	if mx.draws == nil {
		return genKVFuzzOps(rng, n, count)
	}
	live := make([]int64, n)
	for i := range live {
		live[i] = int64(i)
	}
	var crashed []int64
	next := int64(n)
	ops := make([]fuzzOp, 0, count)
	for len(ops) < count {
		r, row := rng.Float64(), 0
		for r >= mx.draws[row].upTo {
			row++
		}
		switch kind := mx.draws[row].kind; kind {
		case 'r':
			i, j := rng.Intn(len(live)), rng.Intn(len(live))
			if i == j {
				continue
			}
			ops = append(ops, fuzzOp{Kind: 'r', A: live[i], B: live[j]})
		case 'j':
			ops = append(ops, fuzzOp{Kind: 'j', A: next})
			live = append(live, next)
			next++
		case 'l', 'c':
			if len(live) <= mx.floor {
				continue
			}
			i := rng.Intn(len(live))
			ops = append(ops, fuzzOp{Kind: kind, A: live[i]})
			if kind == 'c' {
				crashed = append(crashed, live[i])
			}
			live = append(live[:i], live[i+1:]...)
		case 'p':
			if len(crashed) == 0 {
				continue
			}
			ops = append(ops, fuzzOp{Kind: 'p', A: crashed[rng.Intn(len(crashed))]})
		}
	}
	return ops
}

// pick returns a uniformly random element of s.
func pick(rng *rand.Rand, s []int64) int64 { return s[rng.Intn(len(s))] }

// genKVFuzzOps builds a random KV op sequence that is valid when replayed
// from the start. Keys for point ops are drawn across all three populations
// — live (updates and hits), departed (revival joins and miss reads), and
// crashed (the repair-then-rejoin put path and crash-stop miss reads) — so
// every branch of the totality contract gets traffic.
func genKVFuzzOps(rng *rand.Rand, n, count int) []fuzzOp {
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
		if i := slices.Index(s, id); i >= 0 {
			return append(s[:i], s[i+1:]...)
		}
		return s
	}
	ops := make([]fuzzOp, 0, count)
	for len(ops) < count {
		switch r := rng.Float64(); {
		case r < 0.25: // get
			key, _ := pickKey(0.70, 0.12, 0.12)
			ops = append(ops, fuzzOp{Kind: 'g', A: pick(rng, live), B: key})
		case r < 0.45: // put: update, revival join, fresh join, or dead repair+rejoin
			key, fresh := pickKey(0.60, 0.15, 0.10)
			ops = append(ops, fuzzOp{Kind: 'w', A: pick(rng, live), B: key})
			if !fresh {
				departed = drop(departed, key)
				crashed = drop(crashed, key)
			}
			if !slices.Contains(live, key) {
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
			ops = append(ops, fuzzOp{Kind: 'd', A: pick(rng, live), B: key})
			live = drop(live, key)
			crashed = drop(crashed, key)
			departed = append(departed, key)
		case r < 0.65: // scan
			ops = append(ops, fuzzOp{Kind: 's', A: int64(rng.Intn(int(next))), B: int64(1 + rng.Intn(8))})
		case r < 0.80: // route
			i, j := rng.Intn(len(live)), rng.Intn(len(live))
			if i == j {
				continue
			}
			ops = append(ops, fuzzOp{Kind: 'r', A: live[i], B: live[j]})
		case r < 0.87: // join
			ops = append(ops, fuzzOp{Kind: 'j', A: next})
			live = append(live, next)
			next++
		case r < 0.92: // leave
			if len(live) <= 4 {
				continue
			}
			id := pick(rng, live)
			ops = append(ops, fuzzOp{Kind: 'l', A: id})
			live = drop(live, id)
			departed = append(departed, id)
		case r < 0.97: // crash
			if len(live) <= 4 {
				continue
			}
			id := pick(rng, live)
			ops = append(ops, fuzzOp{Kind: 'c', A: id})
			live = drop(live, id)
			crashed = append(crashed, id)
		default: // probe
			if len(crashed) == 0 {
				continue
			}
			ops = append(ops, fuzzOp{Kind: 'p', A: pick(rng, crashed)})
		}
	}
	return ops
}

// kvFuzzValue synthesizes the deterministic payload of the i-th op writing
// key — both the replay and the model derive it the same way.
func kvFuzzValue(key int64, i int) []byte {
	return []byte(fmt.Sprintf("v%d.%d", key, i))
}

// fuzzReplay is one replay in progress: the DSG under test, the model of
// its key space, and the Puts so far — the version the DSG's clock must read.
type fuzzReplay struct {
	d        *DSG
	m        *testkit.KV
	a, floor int
	puts     int64
}

// run replays ops against a fresh DSG and the model, asserting the oracle
// after every applied op. Ops that are inapplicable in the current
// membership (possible after shrinking removed an op they depended on) are
// skipped, so any subsequence replays deterministically. It returns the
// index of the first failing op, or -1.
func (mx *fuzzMix) run(n, a int, seed int64, ops []fuzzOp) (int, error) {
	r := &fuzzReplay{d: New(n, Config{A: a, Seed: seed}), m: testkit.NewKV(n), a: a, floor: mx.floor}
	if err := r.d.Validate(); err != nil {
		return 0, fmt.Errorf("invalid before any op: %w", err)
	}
	for i, op := range ops {
		applied, err := r.apply(i, op)
		if applied && err == nil {
			err = r.check()
		}
		if err != nil {
			return i, fmt.Errorf("%s: %w", op, err)
		}
	}
	return -1, nil
}

// apply serves the i-th op and checks its own result against the model,
// which it then updates. It reports false for an op inapplicable in the
// model's membership.
func (r *fuzzReplay) apply(i int, op fuzzOp) (bool, error) {
	d, m := r.d, r.m
	atFloor := func() bool { return len(m.Live()) <= r.floor }
	switch op.Kind {
	case 'g':
		if !m.Present(op.A) {
			return false, nil
		}
		res, err := d.ApplyOp(Op{Kind: OpGet, Src: op.A, Dst: op.B})
		if err != nil {
			return true, err
		}
		return true, m.CheckGet(op.B, res.Found, res.Value, res.Version)
	case 'w':
		if !m.Present(op.A) {
			return false, nil
		}
		val := kvFuzzValue(op.B, i)
		res, err := d.ApplyOp(Op{Kind: OpPut, Src: op.A, Dst: op.B, Value: val})
		if err != nil {
			return true, err
		}
		r.puts++
		if res.Version != r.puts {
			return true, fmt.Errorf("version %d, want %d", res.Version, r.puts)
		}
		if res.Existed != m.Present(op.B) {
			return true, fmt.Errorf("existed=%v, model %v", res.Existed, m.Present(op.B))
		}
		m.Put(op.B, val, r.puts)
	case 'd':
		if !m.Present(op.A) || m.Present(op.B) && atFloor() {
			return false, nil
		}
		res, err := d.ApplyOp(Op{Kind: OpDelete, Src: op.A, Dst: op.B})
		if err != nil {
			return true, err
		}
		if res.Existed != (m.Present(op.B) || m.Corpse(op.B)) {
			return true, fmt.Errorf("existed=%v, model live=%v dead=%v", res.Existed, m.Present(op.B), m.Corpse(op.B))
		}
		m.Retire(op.B, false)
	case 's':
		res, err := d.ApplyOp(Op{Kind: OpScan, Dst: op.A, Limit: int(op.B)})
		if err != nil {
			return true, err
		}
		return true, m.CheckScan(entriesOf(res.Entries), op.A, int(op.B))
	case 'r':
		if !m.Present(op.A) || !m.Present(op.B) || op.A == op.B {
			return false, nil
		}
		// The worst-case bound is a·H over real nodes; dummy hops come on top
		// (all-dummy runs are exempt from a-balance), and so do corpses, which
		// pad runs until a detection splices them out: the population is the
		// sound allowance.
		bound := r.a*d.Graph().Height() + d.DummyCount() + len(m.Corpses())
		res, err := serveRoute(d, op.A, op.B)
		if err != nil {
			return true, err
		}
		if res.RouteDistance > bound {
			return true, fmt.Errorf("distance %d exceeds a·H+dummies+dead = %d", res.RouteDistance, bound)
		}
	case 'j':
		if m.Present(op.A) || m.Corpse(op.A) {
			return false, nil
		}
		if _, err := d.Add(op.A); err != nil {
			return true, err
		}
		m.Join(op.A)
	case 'l', 'c':
		if !m.Present(op.A) || atFloor() {
			return false, nil
		}
		var err error
		if op.Kind == 'c' {
			err = d.Crash(op.A)
		} else {
			err = d.RemoveNode(op.A)
		}
		if err != nil {
			return true, err
		}
		// Crash-stop: the record is unreadable now and lost at repair.
		m.Retire(op.A, op.Kind == 'c')
	case 'p':
		if !m.Corpse(op.A) {
			return false, nil // already repaired by a route detection
		}
		if !d.RepairCrashedID(op.A) {
			return true, fmt.Errorf("corpse %d in model but repair declined", op.A)
		}
		m.Bury(op.A) // the population check then sees that the repair spliced it out
	}
	return true, nil
}

// check buries the corpses the graph no longer holds and asserts the state
// the model and the DSG must agree on after every applied op.
func (r *fuzzReplay) check() error {
	d, m := r.d, r.m
	for _, id := range m.Corpses() {
		if x := d.NodeByID(id); x == nil || !x.Dead() {
			m.Bury(id)
		}
	}
	if err := d.Validate(); err != nil {
		return err
	}
	want := m.Keys()
	if got := d.Graph().RealN(); got != len(want) {
		return fmt.Errorf("population: %d real nodes, model %d", got, len(want))
	}
	var ids []int64
	for x := range d.Graph().All() {
		if !x.IsDummy() {
			ids = append(ids, x.ID())
		}
	}
	if !slices.Equal(ids, want) {
		return fmt.Errorf("population: real nodes in key order %v, model %v", ids, want)
	}
	if got := testkit.DeadIDs(d.Graph().All()); !slices.Equal(got, m.Corpses()) {
		return fmt.Errorf("population: dead nodes %v, model corpses %v", got, m.Corpses())
	}
	for _, id := range m.Live() {
		if d.NodeByID(id) == nil {
			return fmt.Errorf("population: live id %d not found by key", id)
		}
	}
	if got := d.KVVersion(); got != r.puts {
		return fmt.Errorf("version clock %d, want %d", got, r.puts)
	}
	// The master check: a full level-0 scan must read back exactly the
	// model's records — every live record, no deleted or crashed leftovers.
	limit := len(m.Scan(0, math.MaxInt)) + 1
	if err := m.CheckScan(entriesOf(d.Graph().ScanFrom(skipgraph.KeyOf(0), limit)), 0, limit); err != nil {
		return fmt.Errorf("full scan: %w", err)
	}
	return nil
}

// entriesOf converts scanned records to the model's form.
func entriesOf(es []skipgraph.Entry) []testkit.Entry {
	out := make([]testkit.Entry, len(es))
	for i, e := range es {
		out[i] = testkit.Entry{Key: e.ID, Value: e.Value, Version: e.Version}
	}
	return out
}

// test replays the mix's seeds at a = 2 and a = 4 on n = 24, shrinking a
// failure to a minimal reproducing sequence before reporting it.
func (mx *fuzzMix) test(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz is slow")
	}
	const n = 24
	for _, a := range []int{2, 4} {
		for s := 0; s < *mx.seeds; s++ {
			seed := mx.seedBase*int64(a) + int64(s)
			t.Run(fmt.Sprintf("a=%d/seed=%d", a, seed), func(t *testing.T) {
				ops := mx.gen(rand.New(rand.NewSource(seed)), n, *mx.events)
				run := func(ops []fuzzOp) (int, error) { return mx.run(n, a, seed, ops) }
				idx, err := run(ops)
				if err == nil {
					return
				}
				min := testkit.Ddmin(ops, run, 400)
				t.Fatalf("op %d failed: %v\nminimal reproduction (n=%d a=%d seed=%d, %d ops):\n%v",
					idx, err, n, a, seed, len(min), min)
			})
		}
	}
}

// TestChurnFuzz replays 1000+ random route/join/leave events per seed.
func TestChurnFuzz(t *testing.T) { churnMix.test(t) }

// TestCrashFuzz replays hundreds of random route/join/leave/crash/probe
// events per seed, so every repair path — probe detection, route detection,
// transform sweep — must restore the complete invariant set.
func TestCrashFuzz(t *testing.T) { crashMix.test(t) }

// TestKVFuzz replays hundreds of random get/put/delete/scan events per
// seed, interleaved with churn and crash failures.
func TestKVFuzz(t *testing.T) { kvMix.test(t) }

// TestFuzzMixesArePinned holds each mix's generator to the sequence it drew
// when each mix had a generator of its own: the SHA-256 of one seed's ops as
// String prints them, space-separated.
func TestFuzzMixesArePinned(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mx     *fuzzMix
		seed   int64
		events int
		sum    string
	}{
		{"churn", churnMix, 2000, 1200, "d1025ee64f627cf505ec9f91f65bab091b35208eb2d8c12ba9d4a5fc70801165"},
		{"crash", crashMix, 4000, 800, "5899a252c0980edaf7a2b160a651fdaa400b9f4ab76a5752edb06abac4889e86"},
		{"kv", kvMix, 18000, 800, "9e8b72636d8868796686dbca7219d2f2dbb7d03903ea6f5c03ee36f5e8d02cae"},
	} {
		ops := tc.mx.gen(rand.New(rand.NewSource(tc.seed)), 24, tc.events)
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(joinFuzzOps(ops)))); got != tc.sum {
			t.Errorf("%s mix, seed %d: sequence hash %s, want %s", tc.name, tc.seed, got, tc.sum)
		}
	}
}

// TestParseFuzzOpsRoundTrips: every mix's sequence, printed, parses back to
// itself, bracketed as %v prints it or not.
func TestParseFuzzOpsRoundTrips(t *testing.T) {
	for _, mx := range []*fuzzMix{churnMix, crashMix, kvMix} {
		ops := mx.gen(rand.New(rand.NewSource(mx.seedBase)), 24, 400)
		for _, s := range []string{joinFuzzOps(ops), fmt.Sprint(ops)} {
			if got := parseFuzzOps(t, s); !slices.Equal(got, ops) {
				t.Fatalf("seed %d: %q parsed back as %v", mx.seedBase, s, got)
			}
		}
	}
}

func joinFuzzOps(ops []fuzzOp) string {
	s := make([]string, len(ops))
	for i, op := range ops {
		s[i] = op.String()
	}
	return strings.Join(s, " ")
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
	if idx, err := churnMix.run(24, 2, 2024, ops); err != nil {
		t.Fatalf("op %d of %d failed: %v", idx, len(ops), err)
	}
}
