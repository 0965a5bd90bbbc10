package lsasg

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// Conformance suite: the one Service implementation, driven through nothing
// but the interface with the same op sequence at every shard count, must
// expose the same observable KV state — the flags and values of every
// synchronous call, every streamed outcome, and the final scanned
// keyspace. Path metrics (distances) legitimately differ between one
// graph and four shards, so they are not part of the contract checked here.

// conformanceShards is the table: New's single graph, and NewSharded at two
// and at its default of four shards.
var conformanceShards = []struct {
	name   string
	shards int
}{{"single", 1}, {"sharded-2", 2}, {"sharded", 4}}

func conformanceService(n, shards int, extra ...Option) (Service, error) {
	opts := append([]Option{WithShards(shards), WithSeed(21), WithRebalanceWindow(1)}, extra...)
	return NewSharded(n, opts...)
}

// observe drives svc through a deterministic mixed sequence and renders
// everything observable into one comparable transcript.
func observe(t *testing.T, svc Service, n int) string {
	t.Helper()
	var out []byte
	note := func(format string, args ...any) {
		out = append(out, fmt.Sprintf(format+"\n", args...)...)
	}

	rng := rand.New(rand.NewSource(77))
	// Deletes leave the topology for good (until a put re-joins), so ops
	// that route — gets, routes, and every origin — must draw live keys.
	live := make([]bool, n)
	for i := range live {
		live[i] = true
	}
	pickLive := func() int {
		for {
			if k := rng.Intn(n); live[k] {
				return k
			}
		}
	}

	// Synchronous surface: interleaved puts, reads, deletes, scans.
	for i := 0; i < 120; i++ {
		src := pickLive()
		switch i % 5 {
		case 0, 1:
			key := rng.Intn(n)
			_, existed, err := svc.Put(src, key, []byte(fmt.Sprintf("s%d", i)))
			note("put %d: existed=%v err=%v", key, existed, err)
			live[key] = true
		case 2:
			key := pickLive()
			val, _, found, err := svc.Get(src, key)
			note("get %d: %q found=%v err=%v", key, val, found, err)
		case 3:
			key := rng.Intn(n)
			kvs, err := svc.Scan(src, key, 1+rng.Intn(6))
			note("scan %d: err=%v", key, err)
			for _, kv := range kvs {
				note("  %d=%q", kv.Key, kv.Value)
			}
		case 4:
			key := pickLive()
			if key != src { // deleting the op's own origin would orphan it
				existed, err := svc.Delete(src, key)
				note("delete %d: existed=%v err=%v", key, existed, err)
				live[key] = false
			}
		}
	}

	// Pipelined surface: one ServeOps run over a mixed batch.
	var ops []Op
	for i := 0; i < 150; i++ {
		src := pickLive()
		switch i % 4 {
		case 0:
			key := rng.Intn(n)
			ops = append(ops, PutOp(src, key, []byte(fmt.Sprintf("p%d", i))))
			live[key] = true
		case 1:
			ops = append(ops, GetOp(src, pickLive()))
		case 2:
			key := pickLive()
			for key == src {
				key = pickLive()
			}
			ops = append(ops, RouteOp(src, key))
		case 3:
			ops = append(ops, ScanOp(src, rng.Intn(n), 1+rng.Intn(6)))
		}
	}
	ch := make(chan Op)
	go func() {
		defer close(ch)
		for _, op := range ops {
			ch <- op
		}
	}()
	st, err := svc.ServeOps(context.Background(), ch, func(r OpResult) {
		switch r.Op.Kind {
		case GetKind:
			note("op get %d: %q found=%v", r.Op.Dst, r.Value, r.Found)
		case PutKind:
			note("op put %d: existed=%v", r.Op.Dst, r.Existed)
		case ScanKind:
			note("op scan %d: %d entries", r.Op.Dst, len(r.Entries))
			for _, kv := range r.Entries {
				note("  %d=%q", kv.Key, kv.Value)
			}
		case RouteKind:
			note("op route %d→%d", r.Op.Src, r.Op.Dst)
		}
	})
	if err != nil {
		t.Fatalf("ServeOps: %v", err)
	}
	note("kv stats: gets=%d/%d puts=%d/%d deletes=%d/%d scans=%d/%d",
		st.Gets, st.GetHits, st.Puts, st.PutInserts,
		st.Deletes, st.DeleteHits, st.Scans, st.ScannedEntries)

	// Final observable keyspace.
	kvs, err := svc.Scan(0, 0, n)
	if err != nil {
		t.Fatalf("final scan: %v", err)
	}
	for _, kv := range kvs {
		note("final %d=%q", kv.Key, kv.Value)
	}
	note("n=%d", svc.N())
	if svc.Height() < 1 {
		t.Errorf("height = %d", svc.Height())
	}
	if svc.Stats().Requests == 0 {
		t.Error("stats recorded no requests")
	}
	if err := svc.Verify(); err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func TestServiceConformance(t *testing.T) {
	const n = 32
	var want string
	for i, tc := range conformanceShards {
		svc, err := conformanceService(n, tc.shards)
		if err != nil {
			t.Fatal(err)
		}
		got := observe(t, svc, n)
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			// Report the first diverging line, not two walls of text.
			a, b := strings.Split(want, "\n"), strings.Split(got, "\n")
			for j := 0; j < len(a) && j < len(b); j++ {
				if a[j] != b[j] {
					t.Errorf("observable KV state diverges at line %d:\n %-9s %q\n %-9s %q",
						j, conformanceShards[0].name, a[j], tc.name, b[j])
					break
				}
			}
			if len(a) != len(b) {
				t.Errorf("%s transcript has %d lines, %s has %d", conformanceShards[0].name, len(a), tc.name, len(b))
			}
		}
	}
}

// TestServiceConformanceSerial drives the route-only Serve surface through
// the interface: same request stream, same served count, clean Verify at
// every shard count.
func TestServiceConformanceSerial(t *testing.T) {
	const n = 32
	for _, tc := range conformanceShards {
		t.Run(tc.name, func(t *testing.T) {
			svc, err := conformanceService(n, tc.shards)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(9))
			reqs := make(chan Op)
			go func() {
				defer close(reqs)
				for i := 0; i < 200; i++ {
					src := rng.Intn(n)
					dst := rng.Intn(n)
					for dst == src {
						dst = rng.Intn(n)
					}
					reqs <- RouteOp(src, dst)
				}
			}()
			st, err := svc.ServeOps(context.Background(), reqs, nil)
			if err != nil {
				t.Fatal(err)
			}
			if st.Requests != 200 || st.Shards != tc.shards {
				t.Errorf("%s served %d requests over %d shards, want 200 over %d", tc.name, st.Requests, st.Shards, tc.shards)
			}
			if err := svc.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestServiceConformanceCrash pins the fault-injection surface (the wire
// daemon's crash verb): an index outside [0, N) is ErrOutOfRange at every
// shard count, and an in-range crash is accepted and leaves a structurally
// valid topology.
func TestServiceConformanceCrash(t *testing.T) {
	const n = 32
	for _, tc := range conformanceShards {
		t.Run(tc.name, func(t *testing.T) {
			svc, err := conformanceService(n, tc.shards)
			if err != nil {
				t.Fatal(err)
			}
			for _, idx := range []int{-1, n, 9999} {
				if err := svc.Crash(idx); !errors.Is(err, ErrOutOfRange) {
					t.Errorf("Crash(%d) = %v, want ErrOutOfRange", idx, err)
				}
			}
			if err := svc.Crash(5); err != nil {
				t.Fatalf("Crash(5): %v", err)
			}
			if err := svc.Verify(); err != nil {
				t.Errorf("Verify after crash: %v", err)
			}
		})
	}
}

// TestServiceConformanceCrashOnPath: a route between live keys is served
// whatever crashed node lies on its path, at every shard count — the step
// repairs a crashed intermediate its route contacts (the crashed key is then
// unknown, not dead) and routes again; no leg ever starts or ends at a
// crashed key, so no route is a miss. Each key in turn is crashed on a fresh
// service before one route from key 0 to the last key.
func TestServiceConformanceCrashOnPath(t *testing.T) {
	const n = 32
	for _, tc := range conformanceShards {
		t.Run(tc.name, func(t *testing.T) {
			repaired := 0
			for x := 1; x < n-1; x++ {
				svc, err := conformanceService(n, tc.shards, WithRebalanceWindow(1000))
				if err != nil {
					t.Fatal(err)
				}
				nw := svc.(*Network)
				if err := nw.Crash(x); err != nil {
					t.Fatal(err)
				}
				r, err := nw.Do(RouteOp(0, n-1))
				if err != nil || r.Err != nil {
					t.Fatalf("route 0→%d with %d crashed = %+v, %v; want it served", n-1, x, r, err)
				}
				switch _, err := nw.Distance(0, x); {
				case errors.Is(err, ErrUnknownKey):
					repaired++
				case !errors.Is(err, ErrDeadNode):
					t.Fatalf("crashed key %d after the route: %v", x, err)
				}
				if err := nw.Verify(); err != nil {
					t.Fatal(err)
				}
			}
			if repaired == 0 {
				t.Errorf("no crashed key was on the route 0→%d", n-1)
			}
		})
	}
}

// TestServiceConformanceMembership: AddNode and RemoveNode are directory
// operations of the one service — the key space grows by one key in the
// last shard, a removed key leaves the shard that owns it — with the same
// observable outcome at every shard count.
func TestServiceConformanceMembership(t *testing.T) {
	const n = 32
	for _, tc := range conformanceShards {
		t.Run(tc.name, func(t *testing.T) {
			svc, err := conformanceService(n, tc.shards)
			if err != nil {
				t.Fatal(err)
			}
			idx, err := svc.AddNode()
			if err != nil || idx != n || svc.N() != n+1 {
				t.Fatalf("AddNode = %d, %v with N() = %d; want %d, nil, %d", idx, err, svc.N(), n, n+1)
			}
			// The new key is a first-class citizen: routable across every
			// shard boundary, writable, scannable.
			if _, _, err := svc.Put(0, idx, []byte("joined")); err != nil {
				t.Fatalf("put to the joined node: %v", err)
			}
			if val, _, found, err := svc.Get(1, idx); err != nil || !found || string(val) != "joined" {
				t.Fatalf("get of the joined node: %q found=%v err=%v", val, found, err)
			}
			if kvs, err := svc.Scan(0, 0, n+1); err != nil || len(kvs) != 1 || kvs[0].Key != idx {
				t.Fatalf("scan after join = %v, %v", kvs, err)
			}
			if err := svc.RemoveNode(5); err != nil {
				t.Fatalf("RemoveNode(5): %v", err)
			}
			if err := svc.RemoveNode(5); err == nil {
				t.Error("removing an absent node must fail")
			}
			if err := svc.RemoveNode(n + 1); !errors.Is(err, ErrOutOfRange) {
				t.Errorf("RemoveNode(%d) = %v, want ErrOutOfRange", n+1, err)
			}
			// A removed key is out of the topology, not out of the key space:
			// a pipelined route to it is a per-op miss, a put re-joins it.
			ops := make(chan Op, 2)
			ops <- RouteOp(3, 5)
			ops <- RouteOp(idx-1, idx)
			close(ops)
			var results []OpResult
			st, err := svc.ServeOps(context.Background(), ops, func(r OpResult) { results = append(results, r) })
			if err != nil || st.Requests != 2 || len(results) != 2 {
				t.Fatalf("ServeOps across a removed key: %+v, %v", st, err)
			}
			if !errors.Is(results[0].Err, ErrUnknownKey) || results[1].Err != nil {
				t.Errorf("route errs = %v / %v, want ErrUnknownKey / nil", results[0].Err, results[1].Err)
			}
			if _, existed, err := svc.Put(3, 5, []byte("back")); err != nil || existed {
				t.Errorf("put of a removed key: existed=%v err=%v, want a fresh join", existed, err)
			}
			if err := svc.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestServiceConformanceBoundary: a key on a shard's edge that is deleted,
// removed or crashed costs the accesses addressed to it, never the traffic
// that merely crosses the edge — at S = 2 the edges of n = 16 are 7 | 8, at
// S = 4 also 3 | 4 and 11 | 12, at S = 1 there are none, and the observable
// outcome is the same. The default load window keeps every edge where the
// constructor put it.
func TestServiceConformanceBoundary(t *testing.T) {
	const n = 16
	pairs := [][2]int{{2, 12}, {12, 2}, {1, 14}, {14, 1}, {5, 9}, {9, 5}}
	for _, tc := range conformanceShards {
		t.Run(tc.name, func(t *testing.T) {
			svc, err := NewSharded(n, WithShards(tc.shards), WithSeed(21))
			if err != nil {
				t.Fatal(err)
			}
			crossings := func(when string) {
				t.Helper()
				for _, p := range pairs {
					if _, err := svc.Request(p[0], p[1]); err != nil {
						t.Fatalf("%s: request %d→%d: %v", when, p[0], p[1], err)
					}
					if _, err := svc.Distance(p[0], p[1]); err != nil {
						t.Fatalf("%s: distance %d→%d: %v", when, p[0], p[1], err)
					}
					if _, _, found, err := svc.Get(p[0], p[1]); err != nil || found {
						t.Fatalf("%s: get %d from %d: found=%v err=%v", when, p[1], p[0], found, err)
					}
				}
			}
			miss := func(when string, src, dst int) {
				t.Helper()
				if _, err := svc.Request(src, dst); !errors.Is(err, ErrUnknownKey) && !errors.Is(err, ErrDeadNode) {
					t.Fatalf("%s: request %d→%d = %v, want ErrUnknownKey or ErrDeadNode", when, src, dst, err)
				}
			}

			if existed, err := svc.Delete(3, 7); err != nil || !existed {
				t.Fatalf("delete 7: existed=%v err=%v", existed, err)
			}
			crossings("after delete 7")
			if existed, err := svc.Delete(12, 8); err != nil || !existed {
				t.Fatalf("delete 8: existed=%v err=%v", existed, err)
			}
			crossings("after delete 8")
			// A lost edge key is a miss for the requests that name it, from
			// either side of the edge and as either endpoint.
			miss("deleted destination", 2, 7)
			miss("deleted destination", 12, 7)
			miss("deleted source", 8, 2)
			miss("deleted source", 7, 12)

			for _, k := range []int{4, 11} {
				if err := svc.RemoveNode(k); err != nil {
					t.Fatalf("RemoveNode(%d): %v", k, err)
				}
			}
			crossings("after removing 4 and 11")
			// A corpse on the edge: no leg of a sharded service spans it, while
			// a single graph may well hop onto it — the crash cycle's business.
			if _, existed, err := svc.Put(2, 7, []byte("back")); err != nil || existed {
				t.Fatalf("put 7: existed=%v err=%v, want a fresh join", existed, err)
			}
			if err := svc.Crash(7); err != nil {
				t.Fatal(err)
			}
			if tc.shards > 1 {
				crossings("after crashing 7")
			}
			miss("crashed source", 7, 12)

			// The same through the pipeline, the delete in the window of the
			// routes that cross its edge.
			if _, _, err := svc.Put(2, 7, []byte("back again")); err != nil {
				t.Fatal(err)
			}
			ops := make(chan Op, 3)
			ops <- DeleteOp(2, 7)
			ops <- RouteOp(2, 12)
			ops <- RouteOp(12, 2)
			close(ops)
			var errs []error
			if _, err := svc.ServeOps(context.Background(), ops, func(r OpResult) { errs = append(errs, r.Err) }); err != nil {
				t.Fatal(err)
			}
			if len(errs) != 3 || errs[1] != nil || errs[2] != nil {
				t.Fatalf("pipelined routes across a just-deleted edge key: %v", errs)
			}

			// Puts re-join every lost key; the edges are theirs again.
			for _, k := range []int{4, 7, 8, 11} {
				if _, existed, err := svc.Put(12, k, []byte("rejoined")); err != nil || existed {
					t.Fatalf("put %d: existed=%v err=%v, want a fresh join", k, existed, err)
				}
			}
			for _, p := range [][2]int{{2, 12}, {12, 2}, {2, 7}, {8, 2}, {4, 11}} {
				if _, err := svc.Request(p[0], p[1]); err != nil {
					t.Fatalf("after the re-joins: request %d→%d: %v", p[0], p[1], err)
				}
			}
			if err := svc.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
