package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"lsasg/internal/core"
	"lsasg/internal/skipgraph"
	"lsasg/internal/workload"
)

// feed pushes requests into a channel the service consumes.
func feed(reqs []workload.Request) <-chan core.Op {
	ch := make(chan core.Op)
	go func() {
		defer close(ch)
		for _, r := range reqs {
			ch <- core.RouteOp(int64(r.Src), int64(r.Dst))
		}
	}()
	return ch
}

// routeLegs resolves u → v under dir and routes every leg in its shard's
// graph — the read-only half of what the dispatcher does. The service must
// be idle; routeLegs settles it.
func routeLegs(s *Service, dir *Directory, u, v int64) error {
	s.settleAll()
	legs, n, _ := dir.splitLegs(s.live, u, v)
	for i := 0; i < n; i++ {
		if _, err := s.shards[legs[i].shard].dsg.Graph().RouteKeys(skipgraph.KeyOf(legs[i].src), skipgraph.KeyOf(legs[i].dst)); err != nil {
			return err
		}
	}
	return nil
}

func TestDirectory(t *testing.T) {
	d := newDirectory(64, 4)
	if d.Shards() != 4 || d.Epoch() != 0 {
		t.Fatalf("directory: %d shards epoch %d", d.Shards(), d.Epoch())
	}
	for _, tc := range []struct {
		key  int64
		want int
	}{{0, 0}, {15, 0}, {16, 1}, {31, 1}, {32, 2}, {48, 3}, {63, 3}} {
		if got := d.ShardOf(tc.key); got != tc.want {
			t.Errorf("ShardOf(%d) = %d, want %d", tc.key, got, tc.want)
		}
	}
	if lo, hi := d.Range(2); lo != 32 || hi != 48 {
		t.Errorf("Range(2) = [%d, %d), want [32, 48)", lo, hi)
	}
	live := make([]bool, 64)
	for k := range live {
		live[k] = true
	}
	if k := d.boundary(live, 1, true, 20); k != 31 {
		t.Errorf("boundary(1, upper edge, from 20) = %d, want 31", k)
	}
	if k := d.boundary(live, 3, false, 60); k != 48 {
		t.Errorf("boundary(3, lower edge, to 60) = %d, want 48", k)
	}
	// A dead edge key hands the boundary to the next live key toward the
	// endpoint, and at worst to the endpoint itself.
	live[31], live[30], live[48] = false, false, false
	if k := d.boundary(live, 1, true, 20); k != 29 {
		t.Errorf("boundary(1, upper edge, from 20) with 30 and 31 dead = %d, want 29", k)
	}
	if k := d.boundary(live, 1, true, 29); k != 29 {
		t.Errorf("boundary(1, upper edge, from 29) with 30 and 31 dead = %d, want the endpoint", k)
	}
	if k := d.boundary(live, 3, false, 49); k != 49 {
		t.Errorf("boundary(3, lower edge, to 49) with 48 dead = %d, want the endpoint", k)
	}

	next, err := d.withBoundary(2, 24)
	if err != nil {
		t.Fatal(err)
	}
	if next.Epoch() != 1 || next.ShardOf(28) != 2 || d.ShardOf(28) != 1 {
		t.Errorf("boundary move: epoch %d, new owner of 28 = %d (old %d)",
			next.Epoch(), next.ShardOf(28), d.ShardOf(28))
	}
	if _, err := d.withBoundary(2, 16); err == nil {
		t.Error("boundary move emptying shard 1 must fail")
	}
	if _, err := d.withBoundary(0, 5); err == nil {
		t.Error("moving boundary 0 must fail")
	}
}

func TestPlanRebalance(t *testing.T) {
	dir := newDirectory(32, 4) // 8 keys per shard
	keyLoad := make([]int64, 32)

	if _, ok := planRebalance(dir, keyLoad, 1.5, 2); ok {
		t.Error("zero load must not plan")
	}

	// Balanced load: no plan.
	for i := range keyLoad {
		keyLoad[i] = 10
	}
	if _, ok := planRebalance(dir, keyLoad, 1.5, 2); ok {
		t.Error("balanced load must not plan")
	}

	// Shard 0 hot at its low end: donate its top keys to shard 1.
	keyLoad = make([]int64, 32)
	for k := 0; k < 4; k++ {
		keyLoad[k] = 100
	}
	for k := 4; k < 32; k++ {
		keyLoad[k] = 1
	}
	plan, ok := planRebalance(dir, keyLoad, 1.5, 2)
	if !ok {
		t.Fatal("hot shard 0 must plan")
	}
	if plan.From != 0 || plan.To != 1 {
		t.Fatalf("plan %+v, want 0 → 1", plan)
	}
	if plan.Hi != 8 || plan.Lo < 2 || plan.Lo > 6 {
		t.Errorf("plan moves [%d, %d), want a top slice of shard 0", plan.Lo, plan.Hi)
	}
	if b, start := plan.boundaryAfter(); b != 1 || start != plan.Lo {
		t.Errorf("boundaryAfter = (%d, %d), want (1, %d)", b, start, plan.Lo)
	}

	// Interior hot shard donates toward its lighter neighbour.
	keyLoad = make([]int64, 32)
	for k := 16; k < 24; k++ {
		keyLoad[k] = 50 // shard 2 hot
	}
	for k := 8; k < 16; k++ {
		keyLoad[k] = 20 // shard 1 warmer than shard 3
	}
	for k := 24; k < 32; k++ {
		keyLoad[k] = 1
	}
	plan, ok = planRebalance(dir, keyLoad, 1.5, 2)
	if !ok || plan.From != 2 || plan.To != 3 {
		t.Fatalf("plan %+v ok=%v, want 2 → 3", plan, ok)
	}
	// Donating a top slice to the right neighbour moves that neighbour's
	// start down to the slice's low end.
	if b, start := plan.boundaryAfter(); b != 3 || start != plan.Lo {
		t.Errorf("boundaryAfter = (%d, %d), want (3, %d)", b, start, plan.Lo)
	}

	// A single hub key at the donated edge carrying more than the whole
	// load gap must not plan: moving it would just invert the imbalance and
	// ping-pong the key back next window.
	keyLoad = make([]int64, 32)
	keyLoad[7] = 1000 // top edge of shard 0
	if plan, ok := planRebalance(dir, keyLoad, 1.5, 2); ok {
		t.Errorf("hub-at-boundary load planned %+v; moving it cannot improve balance", plan)
	}
}

// TestPlanRebalanceTerminates: iterating planner + boundary move against a
// STATIC load distribution must reach quiescence — every emitted plan
// strictly reduces the donor/receiver gap (MovedLoad < gap), so a hub key
// with uniform background load cannot ping-pong between two shards forever.
func TestPlanRebalanceTerminates(t *testing.T) {
	dir := newDirectory(64, 4)
	keyLoad := make([]int64, 64)
	keyLoad[15] = 1000 // hub at the top edge of shard 0
	for k := range keyLoad {
		keyLoad[k] += 3 // uniform background
	}
	for round := 0; ; round++ {
		if round > 8 {
			t.Fatalf("planner still migrating after %d rounds on static load (epoch %d)", round, dir.Epoch())
		}
		plan, ok := planRebalance(dir, keyLoad, 1.5, 2)
		if !ok {
			break
		}
		b, start := plan.boundaryAfter()
		next, err := dir.withBoundary(b, start)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		dir = next
	}
}

// TestServeDeterministicAcrossRuns: the sharded pipeline's core contract —
// same seed, shard count, and request sequence ⇒ identical stats, whatever
// the per-shard parallelism.
func TestServeDeterministicAcrossRuns(t *testing.T) {
	run := func(par int) ServeStats {
		svc, err := New(64, Config{Shards: 4, Seed: 9, RebalanceEvery: 100})
		if err != nil {
			t.Fatal(err)
		}
		reqs := workload.Zipf{Seed: 9, S: 1.2}.Generate(64, 400)
		st, err := svc.Serve(context.Background(), feed(reqs))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	base := run(1)
	baseJSON, _ := json.Marshal(base)
	for _, par := range []int{2, 4} {
		got := run(par)
		gotJSON, _ := json.Marshal(got)
		if string(gotJSON) != string(baseJSON) {
			t.Errorf("par=%d stats diverge:\n p=1: %s\n p=%d: %s", par, baseJSON, par, gotJSON)
		}
	}
	if base.Requests != 400 || base.Intra+base.Cross != 400 {
		t.Errorf("request books: %+v", base)
	}
	if base.Cross == 0 {
		t.Error("zipf over 4 shards produced no cross-shard requests")
	}
	if base.Windows != 4 {
		t.Errorf("400 requests at window 100: %d windows, want 4", base.Windows)
	}
}

// TestServeShardsAreConsistent: after a deterministic run with migrations,
// every shard's DSG validates, the directory partitions the key space, and
// every key routes in its owner's snapshot.
func TestServeShardsAreConsistent(t *testing.T) {
	const n = 64
	svc, err := New(n, Config{Shards: 4, Seed: 3, RebalanceEvery: 50})
	if err != nil {
		t.Fatal(err)
	}
	// Hot range in shard 0 forces migrations.
	reqs := workload.HotRange{Seed: 3, LoFrac: 0, HiFrac: 0.125, Hot: 0.85}.Generate(n, 400)
	st, err := svc.Serve(context.Background(), feed(reqs))
	if err != nil {
		t.Fatal(err)
	}
	if st.Rebalances == 0 || st.MovedKeys == 0 {
		t.Fatalf("hot-range trace triggered no migration: %+v", st)
	}
	if st.LoadRatioLast >= st.LoadRatioFirst {
		t.Errorf("rebalancer did not cut the load ratio: first %.2f, last %.2f",
			st.LoadRatioFirst, st.LoadRatioLast)
	}
	dir := svc.Directory()
	if dir.Epoch() != int64(st.Rebalances) {
		t.Errorf("directory epoch %d, want %d (one per migration)", dir.Epoch(), st.Rebalances)
	}
	for _, sl := range svc.shards {
		if err := sl.dsg.Validate(); err != nil {
			t.Fatalf("shard DSG invalid after migrations: %v", err)
		}
	}
	// Every key lives in exactly the shard the directory names.
	for k := int64(0); k < n; k++ {
		owner := dir.ShardOf(k)
		for i, sl := range svc.shards {
			node := sl.dsg.NodeByID(k)
			if (node != nil) != (i == owner) {
				t.Fatalf("key %d: present=%v in shard %d, owner is %d", k, node != nil, i, owner)
			}
		}
	}
	// And cross-shard routing still reaches everything.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		u, v := int64(rng.Intn(n)), int64(rng.Intn(n))
		if u == v {
			continue
		}
		if err := routeLegs(svc, svc.Directory(), u, v); err != nil {
			t.Fatalf("route %d→%d after migrations: %v", u, v, err)
		}
	}
}

// TestSingleShardMatchesEngine: with S = 1 the service is exactly one
// shard's step per op — no cross-shard traffic, no migrations, load ratio
// pinned to 1.
func TestSingleShardMatchesEngine(t *testing.T) {
	svc, err := New(32, Config{Shards: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	reqs := workload.Uniform{Seed: 7}.Generate(32, 200)
	st, err := svc.Serve(context.Background(), feed(reqs))
	if err != nil {
		t.Fatal(err)
	}
	if st.Cross != 0 || st.Rebalances != 0 {
		t.Errorf("single shard: %+v", st)
	}
	if st.Legs != st.Requests {
		t.Errorf("legs %d != requests %d for s=1", st.Legs, st.Requests)
	}
	if st.LoadRatioFirst != 1 || st.LoadRatioLast != 1 {
		t.Errorf("s=1 load ratio: first %.2f last %.2f, want 1", st.LoadRatioFirst, st.LoadRatioLast)
	}
}

// TestServeModeConflict: one caller owns the service at a time. While a
// Serve waits on its channel between windows, a second Serve, Apply and
// every membership change — Crash, AddNode, RemoveNode — must error instead
// of racing its windows and the dispatcher's books; once it returns, they
// all work again.
func TestServeModeConflict(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("s=%d", shards), func(t *testing.T) {
			svc, err := New(32, Config{Shards: shards, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			blocked := make(chan core.Op) // never closed during the first Serve
			ret := make(chan error, 1)
			go func() {
				_, err := svc.Serve(context.Background(), blocked)
				ret <- err
			}()
			for !svc.serving.Load() {
				runtime.Gosched()
			}
			blocked <- core.RouteOp(1, 2) // the first Serve waits for its next op
			ch := make(chan core.Op)
			close(ch)
			calls := []struct {
				name string
				call func() error
			}{
				{"Serve", func() error { _, err := svc.Serve(context.Background(), ch); return err }},
				{"Apply", func() error { _, err := svc.Apply(core.RouteOp(3, 4)); return err }},
				{"Crash", func() error { return svc.Crash(5) }},
				{"AddNode", func() error { _, err := svc.AddNode(); return err }},
				{"RemoveNode", func() error { return svc.RemoveNode(6) }},
			}
			for _, c := range calls {
				if err := c.call(); err == nil {
					t.Errorf("%s while a Serve is in flight must fail", c.name)
				}
			}
			close(blocked)
			if err := <-ret; err != nil {
				t.Fatalf("first Serve failed: %v", err)
			}
			for _, c := range calls {
				if err := c.call(); err != nil {
					t.Errorf("%s after the first Serve returned: %v", c.name, err)
				}
			}
			if err := svc.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestServeInvalidRequest: out-of-range keys and self-communication abort.
func TestServeInvalidRequest(t *testing.T) {
	for _, bad := range []core.Op{core.RouteOp(-1, 3), core.RouteOp(3, 99), core.RouteOp(5, 5)} {
		svc, err := New(32, Config{Shards: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		ch := make(chan core.Op, 1)
		ch <- bad
		close(ch)
		if _, err := svc.Serve(context.Background(), ch); err == nil {
			t.Errorf("request %+v must abort Serve", bad)
		}
	}
}
