package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"

	"lsasg"
	"lsasg/internal/wire"
	traffic "lsasg/internal/workload"
)

// workload is one traffic shape driven against one daemon configuration.
//
// A run has two phases. The fixed-count phase — preload and warm-up — is
// canonical: the same ops for every seed, as a YCSB load phase is, so every
// run of a workload starts timing from the same topology, and the paper-cost
// counters read after it repeat exactly on a given commit. The timed phase is
// made from --seed: the seed decides which requests arrive in which order,
// over a key-popularity ranking that is part of the workload, not of the seed
// (see fixedHotSet).
type workload struct {
	name string
	why  string

	n      int // daemon key space, -n
	shards int // daemon -shards; 1 is the single-graph service
	conns  int // closed-loop client connections in the timed phase

	// warm is the number of canonical ops served after the preload and before
	// the stopwatch starts.
	warm int
	// traced is the length of the prefix of connection 0's timed stream that
	// the per-layer run re-executes on every rung of the ladder.
	traced int
	// stream is the number of ops generated per connection; the timed loop
	// wraps around if a fast daemon exhausts it.
	stream int

	gen func(w workload, seed int64) inputs
}

// inputs is everything a run sends.
type inputs struct {
	fixed []lsasg.Op   // the canonical fixed-count phase, sent on connection 0
	conns [][]lsasg.Op // per-connection timed streams, made from the seed
}

// canonSeed makes the canonical phase and the popularity ranking.
const canonSeed = 0x5eed

var workloads = []workload{
	{
		name: "route-zipf-n256",
		why:  "the paper's own setting: Zipf(1.2) routes at n=256, where core transform+repair is ~95% of the work (the target of transformation-cost work)",
		n:    256, shards: 1, conns: 1, warm: 200, traced: 300, stream: 50000,
		gen: genRoutes,
	},
	{
		name: "kv-crud-n512-s4",
		why:  "CRUD mix over 4 shards: put-joins and delete-leaves beside accesses, plus the shard dispatcher, cross-shard legs, window barriers and rebalancer",
		n:    512, shards: 4, conns: 1, warm: 300, traced: 300, stream: 50000,
		gen: genCRUD,
	},
	{
		name: "scan-n256-c2",
		why:  "scan-only on 2 connections: scans never reach the adjuster, so wire+serve+replica do all the work; the bypass workload for every core optimisation",
		n:    256, shards: 1, conns: 2, warm: 1000, traced: 4000, stream: 200000,
		gen: genScans,
	},
	{
		name: "route-zipf-n512",
		why:  "n-scaling: Zipf(1.2) routes on one graph at 2x the keys cost 2.5x per op and the documented a*H routing bound visibly breaks; n=1024 is too slow to measure steadily",
		n:    512, shards: 1, conns: 1, warm: 100, traced: 100, stream: 20000,
		gen: genRoutes,
	},
}

// quick shrinks a workload for the smoke test: tiny key space, short phases.
func (w workload) quick() workload {
	w.n = 64
	w.warm = 100
	w.traced = 50
	w.stream = 5000
	return w
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// fixedHotSet wraps a popularity generator so that which keys are hot does
// not depend on its seed: it relabels the generated endpoints so the k-th
// most requested key of this stream becomes the k-th most requested key of
// the canonical stream. The relabelling is a bijection of the key space, so
// the request distribution is untouched; what the seed still decides is the
// arrival sequence. Real deployments look like this — popularity belongs to
// the data, arrivals to chance — and it keeps a run's cost from depending on
// where in the initial topology a seed happened to put its hot keys.
type fixedHotSet struct{ inner traffic.Generator }

func (g fixedHotSet) Name() string { return g.inner.Name() }

func (g fixedHotSet) Generate(n, m int) []traffic.Request {
	reqs := g.inner.Generate(n, m)
	canon := popularityOrder(traffic.Zipf{Seed: canonSeed, S: 1.2}.Generate(n, m), n)
	to := make([]int, n)
	for rank, key := range popularityOrder(reqs, n) {
		to[key] = canon[rank]
	}
	for i, r := range reqs {
		reqs[i] = traffic.Request{Src: to[r.Src], Dst: to[r.Dst]}
	}
	return reqs
}

// popularityOrder lists the keys from most to least requested (ties by key).
func popularityOrder(reqs []traffic.Request, n int) []int {
	count := make([]int, n)
	for _, r := range reqs {
		count[r.Src]++
		count[r.Dst]++
	}
	order := make([]int, n)
	for k := range order {
		order[k] = k
	}
	sort.SliceStable(order, func(i, j int) bool { return count[order[i]] > count[order[j]] })
	return order
}

// zipf is the popularity generator of a seed's timed phase.
func zipf(seed int64) traffic.Generator {
	return fixedHotSet{traffic.Zipf{Seed: seed, S: 1.2}}
}

func routeOps(reqs []traffic.Request) []lsasg.Op {
	ops := make([]lsasg.Op, len(reqs))
	for i, r := range reqs {
		ops[i] = lsasg.RouteOp(r.Src, r.Dst)
	}
	return ops
}

func genRoutes(w workload, seed int64) inputs {
	return inputs{
		fixed: routeOps(zipf(canonSeed).Generate(w.n, w.stream)[:w.warm]),
		conns: [][]lsasg.Op{routeOps(zipf(seed).Generate(w.n, w.stream))},
	}
}

// value16 is the deterministic 16-byte payload of the i-th write to key.
func value16(key, i int) []byte {
	return []byte(fmt.Sprintf("%08d%08d", key%1e8, i%1e8))
}

// crudTrace is the CRUD mix over Zipf popularity. It opens with KVMix's
// strided carve-out deletes, which free the keys the inserts revive; their
// number and keys depend only on (n, m), not on the seed.
func crudTrace(w workload, seed int64) (ops []lsasg.Op, carve int) {
	tr, err := traffic.KVMix{Seed: seed, Mix: traffic.MixCRUD, Base: zipf(seed)}.Trace(w.n, w.stream)
	if err != nil {
		panic(err) // fixed, valid arguments
	}
	return kvOps(tr), len(tr) - w.stream
}

// genCRUD preloads every key through a self-access (src == key writes the
// value without a transformation, so the preload is cheap and leaves the
// topology pristine), warms up on the head of the canonical trace — carve-out
// included — and times the seed's trace from past its own carve-out, which
// the canonical one has already done. Warm-up and timed trace disagree on
// which keys are live by then; every op is legal on any state (a get may
// miss, a put may join, a delete may find nothing) and the oracle follows
// the real state, so nothing fails — only the realised mix drifts a little
// from the nominal one, the same way for every seed.
func genCRUD(w workload, seed int64) inputs {
	var in inputs
	for k := 0; k < w.n; k++ {
		in.fixed = append(in.fixed, lsasg.PutOp(k, k, value16(k, 0)))
	}
	canon, _ := crudTrace(w, canonSeed)
	in.fixed = append(in.fixed, canon[:w.warm]...)
	timed, carve := crudTrace(w, seed)
	in.conns = [][]lsasg.Op{timed[carve:]}
	return in
}

// scanTrace is m scans with uniform starts and limits of 1 to 16.
func scanTrace(n, m int, seed int64) []lsasg.Op {
	tr, err := traffic.KVMix{Seed: seed, Mix: traffic.MixRatios{Scan: 1}}.Trace(n, m)
	if err != nil {
		panic(err)
	}
	return kvOps(tr)
}

// genScans preloads every key as a real access from a canonical origin — so
// the fixed-count phase exercises the adjuster and its paper-cost counters
// are never zero — and then scans only. The key/value state is static once
// the preload is done, which makes the oracle exact on any number of
// connections.
func genScans(w workload, seed int64) inputs {
	rng := rand.New(rand.NewSource(canonSeed))
	in := inputs{conns: make([][]lsasg.Op, w.conns)}
	for k := 0; k < w.n; k++ {
		origin := (k + 1 + rng.Intn(w.n-1)) % w.n
		in.fixed = append(in.fixed, lsasg.PutOp(origin, k, value16(k, 0)))
	}
	in.fixed = append(in.fixed, scanTrace(w.n, w.warm, canonSeed)...)
	for i, op := range scanTrace(w.n, w.stream*w.conns, seed) {
		in.conns[i%w.conns] = append(in.conns[i%w.conns], op)
	}
	return in
}

func kvOps(tr traffic.Trace) []lsasg.Op {
	ops := make([]lsasg.Op, len(tr))
	for i, e := range tr {
		src, dst := int(e.Src), int(e.Dst)
		switch e.Op {
		case traffic.OpGet:
			ops[i] = lsasg.GetOp(src, dst)
		case traffic.OpPut:
			ops[i] = lsasg.PutOp(src, dst, value16(dst, i+1))
		case traffic.OpDelete:
			ops[i] = lsasg.DeleteOp(src, dst)
		case traffic.OpScan:
			ops[i] = lsasg.ScanOp(src, dst, e.Limit)
		default:
			panic(fmt.Sprintf("unexpected %v in a KV trace", e))
		}
	}
	return ops
}

// model is the result oracle: the key space as a dense sorted map. A key is
// present while its node is in the topology and holds a value once written;
// every daemon starts with all n nodes present and no values. One connection
// (or a static state) makes the expected reply of every op exact.
type model struct {
	present []bool
	val     [][]byte
}

func newModel(n int) *model {
	m := &model{present: make([]bool, n), val: make([][]byte, n)}
	for k := range m.present {
		m.present[k] = true
	}
	return m
}

// check compares one reply with the model, applies the op's effect, and
// returns a description of the mismatch ("" when the reply is right).
func (m *model) check(op lsasg.Op, resp wire.Response) string {
	switch op.Kind {
	case lsasg.RouteKind:
		if int(resp.Node) != op.Dst {
			return fmt.Sprintf("route %d->%d answered for node %d", op.Src, op.Dst, resp.Node)
		}
	case lsasg.GetKind:
		want := m.val[op.Dst]
		if resp.Found != (want != nil) || !bytes.Equal(resp.Value, want) {
			return fmt.Sprintf("get %d: found=%v value=%q, want %q", op.Dst, resp.Found, resp.Value, want)
		}
	case lsasg.PutKind:
		if resp.Existed != m.present[op.Dst] {
			return fmt.Sprintf("put %d: existed=%v, want %v", op.Dst, resp.Existed, m.present[op.Dst])
		}
		m.present[op.Dst], m.val[op.Dst] = true, op.Value
	case lsasg.DeleteKind:
		if resp.Existed != m.present[op.Dst] {
			return fmt.Sprintf("delete %d: existed=%v, want %v", op.Dst, resp.Existed, m.present[op.Dst])
		}
		m.present[op.Dst], m.val[op.Dst] = false, nil
	case lsasg.ScanKind:
		// Equality with the model's run implies ascending order and the limit.
		i := 0
		for k := op.Dst; k < len(m.val) && i < op.Limit; k++ {
			if m.val[k] == nil {
				continue
			}
			if i >= len(resp.Entries) || int(resp.Entries[i].Key) != k || !bytes.Equal(resp.Entries[i].Value, m.val[k]) {
				return fmt.Sprintf("scan %d limit %d: entry %d is not key %d", op.Dst, op.Limit, i, k)
			}
			i++
		}
		if i != len(resp.Entries) {
			return fmt.Sprintf("scan %d limit %d: %d entries, want %d", op.Dst, op.Limit, len(resp.Entries), i)
		}
	}
	return ""
}
