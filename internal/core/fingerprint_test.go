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

// TestAdjustFingerprint is the behaviour lock of the adjuster: every
// decision the transformation and the scoped repair make — which violations
// they find and in which order, which dummies they create with which keys
// and ids, which RNG draws they consume — ends up in the topology, the
// per-node T/G/D/B state or one of the deterministic counters, so a hash of
// all of it after a few thousand ops pins the algorithm exactly. The
// expected hashes were generated at the commit *before* the adjuster moved
// onto its scratch arena; a refactor that changes any decision fails here,
// not merely in a masked CSV column. Regenerate (only for an intentional
// algorithm change) with: go test ./internal/core -run TestAdjustFingerprint
// -fingerprint.update
func TestAdjustFingerprint(t *testing.T) {
	const n, ops = 256, 3000
	zipf := workload.Zipf{Seed: 7, S: 1.2}
	scenarios := []struct {
		name string
		run  func(t *testing.T, h hash.Hash) *DSG
	}{
		{"serve", func(t *testing.T, h hash.Hash) *DSG {
			d := New(n, Config{A: 4, Seed: 1})
			d.RepairBalance()
			for _, r := range zipf.Generate(n, ops) {
				res, err := d.Serve(int64(r.Src), int64(r.Dst))
				if err != nil {
					t.Fatal(err)
				}
				ins, rem := d.RepairBalancePending()
				hashInts(h, res.Alpha, res.RouteDistance, res.TransformRounds, res.DirectLevel,
					res.DummiesInserted, res.DummiesDestroyed, res.HeightAfter, ins, rem)
			}
			return d
		}},
		{"adjust", func(t *testing.T, h hash.Hash) *DSG {
			d := New(n, Config{A: 4, Seed: 1})
			d.RepairBalance()
			for _, r := range zipf.Generate(n, ops) {
				res, err := d.Adjust(int64(r.Src), int64(r.Dst))
				if err != nil {
					t.Fatal(err)
				}
				hashInts(h, res.Alpha, res.TransformRounds, res.DirectLevel, res.HeightAfter,
					res.RepairInserted, res.RepairRemoved)
			}
			return d
		}},
		{"churn", func(t *testing.T, h hash.Hash) *DSG {
			tr, err := workload.PoissonChurn{Seed: 11, Rate: 0.2, Base: zipf}.Trace(n, ops/3)
			if err != nil {
				t.Fatal(err)
			}
			return runFingerprintTrace(t, h, n, tr)
		}},
		{"crash", func(t *testing.T, h hash.Hash) *DSG {
			tr, err := workload.IndependentCrashes{Seed: 13, Rate: 0.05, Stale: 0.2, Base: zipf}.Trace(n, ops/3)
			if err != nil {
				t.Fatal(err)
			}
			return runFingerprintTrace(t, h, n, tr)
		}},
		{"kv", func(t *testing.T, h hash.Hash) *DSG {
			tr, err := workload.KVMix{Seed: 17, Mix: workload.MixCRUD, Base: zipf}.Trace(n, ops/3)
			if err != nil {
				t.Fatal(err)
			}
			d := New(n, Config{A: 4, Seed: 1})
			d.RepairBalance()
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
				hashInts(h, res.Alpha, res.TransformRounds, res.DirectLevel, res.HeightAfter,
					res.RepairInserted, res.RepairRemoved, int(res.Version), len(res.Entries))
			}
			return d
		}},
	}

	path := filepath.Join("testdata", "adjust_fingerprint.txt")
	got := make(map[string]string, len(scenarios))
	var order []string
	for _, sc := range scenarios {
		h := sha256.New()
		d := sc.run(t, h)
		if err := d.Validate(); err != nil {
			t.Fatalf("%s: invalid end state: %v", sc.name, err)
		}
		hashDSG(h, d)
		got[sc.name] = fmt.Sprintf("%x", h.Sum(nil))
		order = append(order, sc.name)
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

func runFingerprintTrace(t *testing.T, h hash.Hash, n int, tr workload.Trace) *DSG {
	t.Helper()
	d := New(n, Config{A: 4, Seed: 1})
	st, err := d.RunTrace(tr, TraceOptions{OnEvent: func(_ int, _ workload.Event, c EventCost) {
		hashInts(h, c.RouteDistance, c.TransformRounds, c.RepairDummies)
	}})
	if err != nil {
		t.Fatal(err)
	}
	hashInts(h, st.Routes, st.FailedRoutes, st.CrashDetections, st.CrashRepairs, st.MaxHeight)
	return d
}

func hashInts(h hash.Hash, vs ...int) {
	var buf [8]byte
	for _, v := range vs {
		binary.BigEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
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
	flag := func(b bool) int {
		if b {
			return 1
		}
		return 0
	}
	for x := range d.g.All() {
		kp, km := key(x)
		_, ver, hasVal := x.Value()
		hashInts(h, kp, km, int(x.ID()), flag(x.IsDummy()), flag(x.Dead()), int(ver), flag(hasVal), x.BitsLen())
		h.Write([]byte(x.MembershipVector()))
		top := x.MaxLinkedLevel()
		hashInts(h, top)
		for l := 0; l <= top; l++ {
			pp, pm := key(x.Prev(l))
			np, nm := key(x.Next(l))
			hashInts(h, pp, pm, np, nm)
		}
		s := d.st[x]
		hashInts(h, s.B, len(s.T), len(s.G), len(s.D))
		for _, v := range s.T {
			hashInts(h, int(v))
		}
		for _, v := range s.G {
			hashInts(h, int(v))
		}
		for _, v := range s.D {
			hashInts(h, flag(v))
		}
	}
	hashInts(h, d.g.N(), d.g.Height(), len(d.st), int(d.nextDummyID), int(d.clock), int(d.kvSeq),
		d.dummyCount, d.repairInserted, d.repairRemoved, d.joinScan, d.repairScan,
		d.crashCount, d.crashDetectCount, d.crashRepairCount)
}
