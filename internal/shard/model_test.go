package shard

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"lsasg/internal/core"
)

// Model-checked run of the synchronous surface: random puts, gets, deletes,
// scans and routes — most of them cross-shard, half of them aimed at the keys
// on a shard's edge — against a dense sorted-map model of the key space,
// with removals and crashes in between and a load window short enough that
// the edges themselves keep moving. What it pins above all is that losing an
// edge key costs the accesses addressed to that key and never the traffic
// that merely crosses the edge.

// kvModel is the key space as a dense sorted map. A key is present while its
// node is in the topology and alive, and holds a value once written. A crash
// loses the record at once but may leave a corpse in the graph — until a
// route contacts it, a Put or Delete of the key, or a migration of its range
// splices it out — which shows in one place only: a Delete of it reports
// whether the corpse was still there. A route between live keys always
// succeeds: a corpse it runs into is repaired and the route goes on.
type kvModel struct {
	present []bool
	corpse  []bool
	val     [][]byte
}

func newKVModel(n int) *kvModel {
	m := &kvModel{present: make([]bool, n), corpse: make([]bool, n), val: make([][]byte, n)}
	for k := range m.present {
		m.present[k] = true
	}
	return m
}

// liveIn counts the present keys of [lo, hi).
func (m *kvModel) liveIn(lo, hi int64) int {
	c := 0
	for k := lo; k < hi; k++ {
		if m.present[k] {
			c++
		}
	}
	return c
}

// retire takes k out of the model's topology: a delete or a removal, or —
// with corpse set — a crash.
func (m *kvModel) retire(k int64, corpse bool) {
	m.present[k], m.corpse[k], m.val[k] = false, corpse, nil
}

// check compares one served op's outcome with the model, applies the op's
// effect, and returns a description of the mismatch ("" when it is right).
func (m *kvModel) check(op core.Op, o Outcome, err error) string {
	if op.Kind != core.OpRoute && err != nil {
		return fmt.Sprintf("%s %d→%d failed: %v", op.Kind, op.Src, op.Dst, err)
	}
	switch op.Kind {
	case core.OpRoute:
		if !m.present[op.Src] || !m.present[op.Dst] {
			if err == nil {
				return fmt.Sprintf("route %d→%d succeeded with an absent endpoint", op.Src, op.Dst)
			}
			return ""
		}
		// Both endpoints live: the route succeeds, whatever it crosses.
		if err != nil {
			return fmt.Sprintf("route %d→%d between live keys failed: %v", op.Src, op.Dst, err)
		}
	case core.OpGet:
		want := m.val[op.Dst]
		if o.Found != (want != nil) || !bytes.Equal(o.Value, want) {
			return fmt.Sprintf("get %d: found=%v value=%q, want %q", op.Dst, o.Found, o.Value, want)
		}
	case core.OpPut:
		if o.Existed != m.present[op.Dst] {
			return fmt.Sprintf("put %d: existed=%v, want %v", op.Dst, o.Existed, m.present[op.Dst])
		}
		m.present[op.Dst], m.corpse[op.Dst], m.val[op.Dst] = true, false, op.Value
	case core.OpDelete:
		if !m.corpse[op.Dst] && o.Existed != m.present[op.Dst] {
			return fmt.Sprintf("delete %d: existed=%v, want %v", op.Dst, o.Existed, m.present[op.Dst])
		}
		m.retire(op.Dst, false)
	case core.OpScan:
		// Equality with the model's run implies ascending order and the limit.
		i := 0
		for k := op.Dst; k < int64(len(m.val)) && i < op.Limit; k++ {
			if m.val[k] == nil {
				continue
			}
			if i >= len(o.Entries) || o.Entries[i].ID != k || !bytes.Equal(o.Entries[i].Value, m.val[k]) {
				return fmt.Sprintf("scan %d limit %d: entry %d is not key %d with its record", op.Dst, op.Limit, i, k)
			}
			i++
		}
		if i != len(o.Entries) {
			return fmt.Sprintf("scan %d limit %d: %d entries, want %d", op.Dst, op.Limit, len(o.Entries), i)
		}
	}
	return ""
}

// checkLiveBook holds the dispatcher's liveness book to the model and to the
// graphs: a key is a boundary candidate exactly while its shard's graph holds
// it alive, and no graph but its shard's holds it at all.
func checkLiveBook(t *testing.T, svc *Service, m *kvModel, step int) {
	t.Helper()
	svc.settleAll()
	dir := svc.Directory()
	for k := int64(0); k < svc.n; k++ {
		if svc.live[k] != m.present[k] {
			t.Fatalf("step %d: live[%d] = %v, model says %v", step, k, svc.live[k], m.present[k])
		}
		for i, sl := range svc.shards {
			node := sl.dsg.NodeByID(k)
			switch {
			case i != dir.ShardOf(k) && node != nil:
				t.Fatalf("step %d: key %d of shard %d is also in shard %d's graph", step, k, dir.ShardOf(k), i)
			case i == dir.ShardOf(k) && svc.live[k] != (node != nil && !node.Dead()):
				t.Fatalf("step %d: live[%d] = %v, but shard %d's graph disagrees", step, k, svc.live[k], i)
			}
		}
	}
}

func TestModelCheckedBoundaryChurn(t *testing.T) {
	const (
		n     = 48
		steps = 1500
	)
	var migrations, edgeLosses int64
	for _, shards := range []int{2, 4} {
		for seed := int64(1); seed <= 6; seed++ {
			svc, err := New(n, Config{Shards: shards, Seed: seed, RebalanceEvery: 8})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			m := newKVModel(n)
			// pick draws a key: every other time one of the two keys on
			// either side of a current shard edge.
			pick := func() int64 {
				if rng.Intn(2) == 0 {
					return int64(rng.Intn(n))
				}
				lo, hi := svc.Directory().Range(rng.Intn(shards))
				edge := []int64{lo, lo + 1, hi - 2, hi - 1}[rng.Intn(4)]
				return min(max(edge, 0), n-1)
			}
			// spare reports whether k's shard can lose it and keep a graph
			// worth routing in.
			spare := func(k int64) bool {
				lo, hi := svc.Directory().Range(svc.Directory().ShardOf(k))
				return m.present[k] && m.liveIn(lo, hi) > 3
			}
			isEdge := func(k int64) bool {
				lo, hi := svc.Directory().Range(svc.Directory().ShardOf(k))
				return k == lo || k == hi-1
			}
			for step := 0; step < steps; step++ {
				src, k := pick(), pick()
				var op core.Op
				switch r := rng.Intn(20); {
				case r < 6:
					if src == k {
						continue
					}
					op = core.RouteOp(src, k)
				case r < 10:
					op = core.Op{Kind: core.OpPut, Src: src, Dst: k, Value: []byte(fmt.Sprintf("v%d.%d", k, step))}
				case r < 13:
					op = core.Op{Kind: core.OpGet, Src: src, Dst: k}
				case r < 15:
					op = core.Op{Kind: core.OpScan, Src: src, Dst: k, Limit: 1 + rng.Intn(12)}
				case r < 18:
					if !spare(k) {
						continue
					}
					if isEdge(k) {
						edgeLosses++
					}
					op = core.Op{Kind: core.OpDelete, Src: src, Dst: k}
				default:
					// An admin verb between ops: a removal or a crash.
					if !spare(k) {
						continue
					}
					if isEdge(k) {
						edgeLosses++
					}
					crash := r == 19
					if crash {
						err = svc.Crash(k)
					} else {
						err = svc.RemoveNode(k)
					}
					if err != nil {
						t.Fatalf("S=%d seed %d step %d: retiring %d (crash=%v): %v", shards, seed, step, k, crash, err)
					}
					m.retire(k, crash)
					checkLiveBook(t, svc, m, step)
					continue
				}
				o, err := svc.Apply(op)
				if errors.Is(err, ErrBarrier) {
					t.Fatalf("S=%d seed %d step %d: %v", shards, seed, step, err)
				}
				if bad := m.check(op, o, err); bad != "" {
					t.Fatalf("S=%d seed %d step %d under %v: %s", shards, seed, step, svc.Directory().starts, bad)
				}
				checkLiveBook(t, svc, m, step)
			}
			migrations += svc.Totals().Rebalances
			for i, sl := range svc.shards {
				if err := sl.dsg.Validate(); err != nil {
					t.Fatalf("S=%d seed %d: shard %d invalid after the run: %v", shards, seed, i, err)
				}
			}
		}
	}
	if migrations == 0 || edgeLosses == 0 {
		t.Fatalf("the runs saw %d migrations and retired %d edge keys; both must happen for the check to mean anything", migrations, edgeLosses)
	}
}
