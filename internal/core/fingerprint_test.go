package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lsasg/internal/skipgraph"
	"lsasg/internal/workload"
)

var fingerprintUpdate = flag.Bool("fingerprint.update", false,
	"rewrite testdata/adjust_fingerprint.txt from the current implementation")

// fingerprint is the pair of running hashes one scenario feeds. full takes
// everything; real takes only what describes real nodes — the paper's
// algorithm proper — and nothing a dummy's existence, key or id can move.
type fingerprint struct {
	full, real hash.Hash
}

// op records one op's outcome: realVals go to both halves, rest to the full
// half only.
func (fp fingerprint) op(realVals []int, rest ...int) {
	hashInts(fp.real, realVals...)
	hashInts(fp.full, realVals...)
	hashInts(fp.full, rest...)
}

// TestAdjustFingerprint is the behaviour lock of the adjuster, in two
// halves per scenario.
//
// The full half: every decision the transformation and the scoped repair
// make — which violations they find and in which order, which dummies they
// create with which keys and ids, which RNG draws they consume — ends up in
// the topology, the per-node T/G/D/B state or one of the deterministic
// counters, so a hash of all of it after a few thousand ops pins the
// algorithm exactly. A refactor that changes any decision fails here, not
// merely in a masked CSV column.
//
// The real half ("<scenario>.real"): per-op alpha and KV version, then
// every non-dummy node's id, liveness, membership vector, value version and
// T/G/D/B, plus the clocks and crash counters. It pins the paper's
// algorithm — who splits where, which groups and timestamps result, which
// RNG draws the median finder consumes — independently of a-balance
// maintenance, so a change to where and when dummies are placed may move
// the full half (regenerate it on purpose) but must leave this one alone.
//
// The file's "serve" lines pinned Serve when it was an unrepaired twin of
// the adjustment; Serve is route + AdjustAccess now, the "adjust" scenario
// pins it, and those two lines are no longer read.
//
// Regenerate (only for an intentional algorithm change) with: go test
// ./internal/core -run TestAdjustFingerprint -fingerprint.update — and then
// read the diff: a ".real" line that moved means real nodes decide
// differently.
func TestAdjustFingerprint(t *testing.T) {
	const n, ops = 256, 3000
	zipf := workload.Zipf{Seed: 7, S: 1.2}
	adjust := func(n, ops int) func(t *testing.T, fp fingerprint) *DSG {
		return func(t *testing.T, fp fingerprint) *DSG {
			d := New(n, Config{A: 4, Seed: 1})
			for _, r := range zipf.Generate(n, ops) {
				res := d.AdjustAccess(RouteOp(int64(r.Src), int64(r.Dst)))
				fp.op([]int{res.Alpha}, res.TransformRounds, res.DirectLevel, res.HeightAfter,
					res.RepairInserted, res.RepairRemoved)
			}
			return d
		}
	}
	scenarios := []struct {
		name string
		run  func(t *testing.T, fp fingerprint) *DSG
	}{
		{"adjust", adjust(n, ops)},
		// The served regime: at n = 512 a long Zipf stream leaves more dummies
		// than real nodes, in long all-dummy runs, which is where the scoped
		// repair's scans walk the most.
		{"adjust512", adjust(512, 5000)},
		{"churn", func(t *testing.T, fp fingerprint) *DSG {
			tr, err := workload.PoissonChurn{Seed: 11, Rate: 0.2, Base: zipf}.Trace(n, ops/3)
			if err != nil {
				t.Fatal(err)
			}
			return runFingerprintTrace(t, fp, n, tr)
		}},
		{"crash", func(t *testing.T, fp fingerprint) *DSG {
			tr, err := workload.IndependentCrashes{Seed: 13, Rate: 0.05, Stale: 0.2, Base: zipf}.Trace(n, ops/3)
			if err != nil {
				t.Fatal(err)
			}
			return runFingerprintTrace(t, fp, n, tr)
		}},
		{"kv", func(t *testing.T, fp fingerprint) *DSG {
			tr, err := workload.KVMix{Seed: 17, Mix: workload.MixCRUD, Base: zipf}.Trace(n, ops/3)
			if err != nil {
				t.Fatal(err)
			}
			d := New(n, Config{A: 4, Seed: 1})
			for i, e := range tr {
				if i%40 == 39 {
					// Crash a pseudo-random key so Put/Delete/Get and the
					// transformation's dead-member detection all meet corpses.
					if id := int64(i*7919) % n; d.NodeByID(id) != nil {
						if err := d.Crash(id); err != nil {
							t.Fatal(err)
						}
					}
				}
				op := Op{Src: e.Src, Dst: e.Dst, Limit: e.Limit}
				switch e.Op {
				case workload.OpGet:
					op.Kind = OpGet
				case workload.OpPut:
					op.Kind = OpPut
					op.Value = binary.BigEndian.AppendUint64(nil, uint64(i))
				case workload.OpDelete:
					op.Kind = OpDelete
				case workload.OpScan:
					op.Kind = OpScan
				default:
					t.Fatalf("unexpected event %s in a KV trace", e)
				}
				res, err := d.ApplyOp(op)
				if err != nil {
					t.Fatal(err)
				}
				hashInts(fp.real, res.Alpha, int(res.Version), len(res.Entries))
				hashInts(fp.full, res.Alpha, res.TransformRounds, res.DirectLevel, res.HeightAfter,
					res.RepairInserted, res.RepairRemoved, int(res.Version), len(res.Entries))
			}
			return d
		}},
	}

	path := filepath.Join("testdata", "adjust_fingerprint.txt")
	got := make(map[string]string, 2*len(scenarios))
	var order []string
	for _, sc := range scenarios {
		fp := fingerprint{full: sha256.New(), real: sha256.New()}
		d := sc.run(t, fp)
		if err := d.Validate(); err != nil {
			t.Fatalf("%s: invalid end state: %v", sc.name, err)
		}
		t.Logf("%s: %d real nodes, %d dummies", sc.name, d.g.RealN(), d.DummyCount())
		hashDSG(fp.full, d)
		hashRealNodes(fp.real, d)
		got[sc.name] = fmt.Sprintf("%x", fp.full.Sum(nil))
		got[sc.name+".real"] = fmt.Sprintf("%x", fp.real.Sum(nil))
		order = append(order, sc.name, sc.name+".real")
	}
	if *fingerprintUpdate {
		var sb strings.Builder
		for _, name := range order {
			fmt.Fprintf(&sb, "%s %s\n", name, got[name])
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string]string)
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if name, sum, ok := strings.Cut(sc.Text(), " "); ok {
			want[name] = sum
		}
	}
	for _, name := range order {
		if got[name] != want[name] {
			t.Errorf("%s: fingerprint %s, want %s — the adjuster made a different decision somewhere", name, got[name], want[name])
		}
	}
}

// runFingerprintTrace replays a churn or crash trace on a fresh DSG with the
// step and the membership calls, folding each event's route distance, ρ and
// repair actions, then the route and crash books and the peak height, into
// fp. A route to a crashed destination is a failed probe that detects and
// repairs it: a fixed part of the stimulus, which pins the adjuster, not a
// serving policy.
func runFingerprintTrace(t *testing.T, fp fingerprint, n int, tr workload.Trace) *DSG {
	t.Helper()
	d := New(n, Config{A: 4, Seed: 1})
	routes, failed, maxHeight := 0, 0, 0
	for i, ev := range tr {
		ins0, rem0 := d.RepairStats()
		var res OpResult
		var err error
		switch ev.Op {
		case workload.OpRoute:
			if v := d.NodeByID(ev.Dst); v == nil || v.Dead() {
				if v != nil {
					d.crashDetectCount++
					d.repairCrashed(v)
				}
				failed++
			} else if res, err = serveRoute(d, ev.Src, ev.Dst); err == nil {
				routes++
			}
		case workload.OpJoin:
			_, err = d.Add(ev.Node)
		case workload.OpLeave:
			err = d.RemoveNode(ev.Node)
		case workload.OpCrash:
			err = d.Crash(ev.Node)
		}
		if err != nil {
			t.Fatalf("event %d %s: %v", i, ev, err)
		}
		ins, rem := d.RepairStats()
		fp.op(nil, res.RouteDistance, res.TransformRounds, ins+rem-ins0-rem0)
		maxHeight = max(maxHeight, d.g.Height())
	}
	_, det, rep := d.CrashStats()
	fp.op([]int{routes, failed, det, rep}, maxHeight)
	return d
}

// stateCount counts the nodes that carry a DSG state.
func stateCount(d *DSG) int {
	n := 0
	for x := range d.g.All() {
		if stateOf(x) != nil {
			n++
		}
	}
	return n
}

func hashInts(h hash.Hash, vs ...int) {
	var buf [8]byte
	for _, v := range vs {
		binary.BigEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
}

func flagInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// hashState folds one node's T/G/D/B into h.
func hashState(h hash.Hash, s *nodeState) {
	hashInts(h, s.B, len(s.T), len(s.G), len(s.D))
	for _, v := range s.T {
		hashInts(h, int(v))
	}
	for _, v := range s.G {
		hashInts(h, int(v))
	}
	for _, v := range s.D {
		hashInts(h, flagInt(v))
	}
}

// hashRealNodes folds into h what the DSG holds about real nodes only:
// each one in key order with its id, liveness, membership vector, value
// version and T/G/D/B state, then the clocks and crash counters. Links are
// left out — a dummy may sit between any two of them.
func hashRealNodes(h hash.Hash, d *DSG) {
	reals := 0
	for x := range d.g.All() {
		if x.IsDummy() {
			continue
		}
		reals++
		_, ver, hasVal := x.Value()
		hashInts(h, int(x.ID()), flagInt(x.Dead()), int(ver), flagInt(hasVal), x.BitsLen())
		h.Write([]byte(x.MembershipVector()))
		hashState(h, stateOf(x))
	}
	hashInts(h, reals, int(d.clock), int(d.kvSeq), d.crashCount, d.crashDetectCount, d.crashRepairCount)
}

// hashDSG folds the complete observable state of a DSG into h: every node
// in key order with its identity, flags, membership vector, links at every
// level, value version and T/G/D/B state, then the global counters.
func hashDSG(h hash.Hash, d *DSG) {
	key := func(x *skipgraph.Node) (int, int) {
		if x == nil {
			return -1, -1
		}
		return int(x.Key().Primary), int(x.Key().Minor)
	}
	for x := range d.g.All() {
		kp, km := key(x)
		_, ver, hasVal := x.Value()
		hashInts(h, kp, km, int(x.ID()), flagInt(x.IsDummy()), flagInt(x.Dead()), int(ver), flagInt(hasVal), x.BitsLen())
		h.Write([]byte(x.MembershipVector()))
		top := x.MaxLinkedLevel()
		hashInts(h, top)
		for l := 0; l <= top; l++ {
			pp, pm := key(x.Prev(l))
			np, nm := key(x.Next(l))
			hashInts(h, pp, pm, np, nm)
		}
		hashState(h, stateOf(x))
	}
	hashInts(h, d.g.N(), d.g.Height(), stateCount(d), int(d.nextDummyID), int(d.clock), int(d.kvSeq),
		d.dummyCount, d.repairInserted, d.repairRemoved, d.joinScan, d.repairScan,
		d.crashCount, d.crashDetectCount, d.crashRepairCount)
}
