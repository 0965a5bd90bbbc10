package lsasg_test

import (
	"context"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"os"
	"regexp"
	"strings"
	"testing"

	"lsasg"
	"lsasg/internal/obs"
)

// A pair that communicates once becomes directly linked; the repeat costs
// nothing, and every other pair still routes in O(log n).
func Example() {
	nw, _ := lsasg.New(32, lsasg.WithSeed(42))

	// First communication between 3 and 29: full skip-graph routing, then
	// the DSG transformation links the pair directly.
	res, _ := nw.Request(3, 29)
	fmt.Println("first 3→29:", res.RouteDistance, "intermediates,", res.TransformRounds,
		"rounds, working set", res.WorkingSetNumber)

	// The repeat is free: the pair now shares a list of size two.
	res, _ = nw.Request(3, 29)
	fmt.Println("repeat 3→29:", res.RouteDistance, "intermediates, working set", res.WorkingSetNumber)
	linked, level := nw.DirectlyLinked(3, 29)
	fmt.Println("directly linked:", linked, "at level", level)

	// The height stays logarithmic after each transformation.
	d, _ := nw.Distance(0, 31)
	fmt.Println("unrelated 0→31:", d, "intermediates, height", nw.Height())
	// Output:
	// first 3→29: 5 intermediates, 448 rounds, working set 32
	// repeat 3→29: 0 intermediates, working set 2
	// directly linked: true at level 5
	// unrelated 0→31: 3 intermediates, height 6
}

// Every node index doubles as a key holding one versioned value. A Get or
// Put of key k from origin o is the access σ=(o, k) and adjusts the
// topology like a request; a Put of an absent key joins it, a Delete leaves.
func ExampleNetwork_Put() {
	nw, _ := lsasg.New(64, lsasg.WithSeed(42))

	ver, existed, _ := nw.Put(3, 29, []byte("hello")) // σ=(3,29); key 29 is a member already
	fmt.Println("put 29: version", ver, "existed", existed)
	linked, _ := nw.DirectlyLinked(3, 29)
	fmt.Println("3 and 29 directly linked:", linked)

	val, ver, found, _ := nw.Get(7, 29)
	fmt.Printf("get 29: %q v%d found %v\n", val, ver, found)

	existed, _ = nw.Delete(3, 29) // a tracked leave
	fmt.Println("delete 29: existed", existed)
	_, existed, _ = nw.Put(5, 29, []byte("back")) // the key was gone: a tracked join
	fmt.Println("put 29 again: existed", existed)

	for _, k := range []int{40, 35, 44} {
		nw.Put(0, k, []byte{byte('a' + k%26)})
	}
	kvs, _ := nw.Scan(0, 29, 8) // ≤ 8 value-bearing entries with key ≥ 29, sorted
	fmt.Print("scan from 29:")
	for _, kv := range kvs {
		fmt.Printf(" %d=%s", kv.Key, kv.Value)
	}
	fmt.Println()
	// Output:
	// put 29: version 1 existed true
	// 3 and 29 directly linked: true
	// get 29: "hello" v1 found true
	// delete 29: existed true
	// put 29 again: existed false
	// scan from 29: 29=back 35=j 40=o 44=s
}

// On a sharded network the same methods reach the owning shard, and a Scan
// stitches the shards' sorted runs, so a range spanning a shard boundary
// comes back globally sorted.
func ExampleNetwork_Scan() {
	nw, _ := lsasg.NewSharded(512, lsasg.WithShards(8), lsasg.WithSeed(42))

	for k := 60; k < 70; k++ { // shard 0 holds keys 0..63, shard 1 keys 64..127
		nw.Put((k+1)%512, k, []byte(fmt.Sprintf("v%d", k)))
	}
	kvs, _ := nw.Scan(0, 58, 16)
	fmt.Print("scan from 58:")
	for _, kv := range kvs {
		fmt.Printf(" %d=%s", kv.Key, kv.Value)
	}
	fmt.Println()
	// Output:
	// scan from 58: 60=v60 61=v61 62=v62 63=v63 64=v64 65=v65 66=v66 67=v67 68=v68 69=v69
}

// ServeOps takes the ops off a channel and returns what a loop over Do
// returns. Here 85% of the endpoints fall in the bottom sixteenth of the key
// space, inside shard 0 of 8, until the rebalancer moves keys off it.
func ExampleNetwork_ServeOps() {
	const n = 512
	nw, _ := lsasg.NewSharded(n, lsasg.WithShards(8), lsasg.WithSeed(42), lsasg.WithTracing())

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel() // releases the producer if ServeOps returns early
	ops := make(chan lsasg.Op)
	go func() {
		defer close(ops)
		rng := rand.New(rand.NewSource(7))
		key := func() int {
			if rng.Float64() < 0.85 {
				return rng.Intn(n / 16)
			}
			return rng.Intn(n)
		}
		for i := 0; i < 4096; i++ {
			src, dst := key(), key()
			op := lsasg.RouteOp(src, dst)
			switch r := rng.Float64(); {
			case r < 0.2:
				op = lsasg.GetOp(src, dst)
			case r < 0.3:
				op = lsasg.PutOp(src, dst, []byte(fmt.Sprint(i)))
			case r < 0.35:
				op = lsasg.ScanOp(src, dst, 8)
			case src == dst:
				continue
			}
			select {
			case ops <- op:
			case <-ctx.Done():
				return
			}
		}
	}()
	stats, err := nw.ServeOps(ctx, ops, nil)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("served %d ops, %d cross-shard; mean route distance %.2f, worst leg %d\n",
		stats.Requests, stats.CrossShardRequests, stats.MeanRouteDistance, stats.MaxRouteDistance)
	fmt.Printf("rebalancer: %d migrations moved %d keys, directory epoch %d\n",
		stats.Rebalances, stats.MigratedKeys, nw.DirectoryEpoch())

	// The tracer's latencies are wall-clock; its per-verb counts are not.
	fmt.Print("ops by verb:")
	for _, l := range nw.Tracer().VerbLatencies() {
		fmt.Printf(" %s %d", obs.KindName(l.Kind), l.Count)
	}
	fmt.Println()
	// Output:
	// served 4033 ops, 2708 cross-shard; mean route distance 6.37, worst leg 83
	// rebalancer: 7 migrations moved 325 keys, directory epoch 7
	// ops by verb: route 2621 get 791 put 422 scan 184
}

// TestREADMEShowsTheExamples holds every ```go block of README.md to the
// body of one Example above, Output block included, so the README shows
// code that compiles and output that go test checks.
func TestREADMEShowsTheExamples(t *testing.T) {
	src, err := os.ReadFile("example_test.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "example_test.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	bodies := map[string]bool{}
	for _, decl := range f.Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok && strings.HasPrefix(fn.Name.Name, "Example") {
			body := string(src[fset.Position(fn.Body.Lbrace).Offset+1 : fset.Position(fn.Body.Rbrace).Offset])
			bodies[strings.TrimSpace(strings.ReplaceAll(body, "\n\t", "\n"))] = true
		}
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	blocks := regexp.MustCompile("(?s)```go\n(.*?)```").FindAllSubmatch(readme, -1)
	if len(blocks) == 0 {
		t.Fatal("README.md has no ```go block")
	}
	for _, b := range blocks {
		if block := strings.TrimSpace(string(b[1])); !bodies[block] {
			t.Errorf("README.md block is not the body of an Example in example_test.go:\n%s", block)
		}
	}
}
