package lsasg

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// Interface-conformance suite: both Service implementations, driven through
// nothing but the interface with the same op sequence, must expose the same
// observable KV state — the flags and values of every synchronous call,
// every pipelined outcome, and the final scanned keyspace. Path metrics
// (distances, lag) legitimately differ between one graph and four shards,
// so they are not part of the contract checked here.

func conformanceBuilders(n int) map[string]func() (Service, error) {
	return map[string]func() (Service, error){
		"single": func() (Service, error) {
			return New(n, WithSeed(21), WithBatchSize(1))
		},
		"sharded": func() (Service, error) {
			return NewSharded(n, WithShards(4), WithSeed(21),
				WithBatchSize(1), WithRebalanceWindow(1))
		},
	}
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

	// Pipelined surface: one ServeOps generation over a mixed batch.
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
	transcripts := map[string]string{}
	for name, build := range conformanceBuilders(n) {
		svc, err := build()
		if err != nil {
			t.Fatal(err)
		}
		transcripts[name] = observe(t, svc, n)
	}
	if transcripts["single"] != transcripts["sharded"] {
		a, b := transcripts["single"], transcripts["sharded"]
		// Report the first diverging line, not two walls of text.
		la, lb := 0, 0
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				break
			}
			if a[i] == '\n' {
				la, lb = i+1, i+1
			}
		}
		enda, endb := la, lb
		for enda < len(a) && a[enda] != '\n' {
			enda++
		}
		for endb < len(b) && b[endb] != '\n' {
			endb++
		}
		t.Errorf("observable KV state diverges:\n single  %q\n sharded %q",
			a[la:enda], b[lb:endb])
	}
}

// TestServiceConformanceSerial drives the route-only Serve surface through
// the interface: same request stream, same served count, clean Verify on
// both implementations.
func TestServiceConformanceSerial(t *testing.T) {
	const n = 32
	for name, build := range conformanceBuilders(n) {
		t.Run(name, func(t *testing.T) {
			svc, err := build()
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(9))
			reqs := make(chan Pair)
			go func() {
				defer close(reqs)
				for i := 0; i < 200; i++ {
					src := rng.Intn(n)
					dst := rng.Intn(n)
					for dst == src {
						dst = rng.Intn(n)
					}
					reqs <- Pair{Src: src, Dst: dst}
				}
			}()
			st, err := svc.Serve(context.Background(), reqs)
			if err != nil {
				t.Fatal(err)
			}
			if st.Requests != 200 {
				t.Errorf("%s served %d requests, want 200", name, st.Requests)
			}
			if err := svc.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestServiceConformanceCrash pins the fault-injection surface both
// implementations expose beside the interface (the wire daemon's crash
// verb): an index outside [0, N) is ErrOutOfRange on either topology, and an
// in-range crash is accepted and leaves a structurally valid topology.
func TestServiceConformanceCrash(t *testing.T) {
	const n = 32
	for name, build := range conformanceBuilders(n) {
		t.Run(name, func(t *testing.T) {
			svc, err := build()
			if err != nil {
				t.Fatal(err)
			}
			cr := svc.(interface{ Crash(idx int) error })
			for _, idx := range []int{-1, n, 9999} {
				if err := cr.Crash(idx); !errors.Is(err, ErrOutOfRange) {
					t.Errorf("Crash(%d) = %v, want ErrOutOfRange", idx, err)
				}
			}
			if err := cr.Crash(5); err != nil {
				t.Fatalf("Crash(5): %v", err)
			}
			if err := svc.Verify(); err != nil {
				t.Errorf("Verify after crash: %v", err)
			}
		})
	}
}
