// Serving: push a request stream through ServeOps. Every request is routed
// in the topology the requests before it left, then adjusts it — the paper's
// sequential model — so the results are what a loop over Do returns,
// deterministic for a fixed seed; the tracer times the run as it happens.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"lsasg"
	"lsasg/internal/obs"
)

func main() {
	const n = 128
	nw, err := lsasg.New(n, lsasg.WithSeed(42),
		lsasg.WithTracing()) // latency histograms + slow-span ring
	if err != nil {
		log.Fatal(err)
	}

	// serveSkewed takes the unified lsasg.Service interface, so the same
	// driver would serve the sharded implementation — or any other — without
	// change. Only the post-hoc link inspection below needs the concrete type.
	stats, err := serveSkewed(nw, 2048)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("served %d requests\n", stats.Requests)
	fmt.Printf("mean route distance %.3f (max %d) — each measured before its own adjustment\n",
		stats.MeanRouteDistance, stats.MaxRouteDistance)
	fmt.Printf("topology after: height %d, %d dummies\n", stats.Height, stats.DummyCount)

	// The hot pairs ended up directly linked: the post-transformation
	// guarantee.
	for _, p := range [][2]int{{3, 90}, {17, 64}} {
		if ok, lvl := nw.DirectlyLinked(p[0], p[1]); ok {
			fmt.Printf("hot pair %d↔%d directly linked at level %d\n", p[0], p[1], lvl)
		}
	}

	// The tracer measured the run as it happened: per-verb latency quantiles
	// from the log₂-bucket histograms, and the slowest op with its per-leg
	// breakdown from the span ring. These are wall-clock numbers — they vary
	// run to run, unlike the deterministic stats columns above.
	tr := nw.Tracer()
	for _, l := range tr.VerbLatencies() {
		if l.Count == 0 {
			continue
		}
		fmt.Printf("latency %s: n=%d p50=%v p99=%v\n", obs.KindName(l.Kind),
			l.Count, time.Duration(l.P50Nanos), time.Duration(l.P99Nanos))
	}
	for _, s := range tr.SlowSpans(1) {
		fmt.Printf("slowest op: seq=%d %s %d→%d total=%v dist=%d hops=%d\n",
			s.Seq, obs.KindName(s.Kind), s.Src, s.Dst,
			time.Duration(s.TotalNanos), s.RouteDistance, s.RouteHops)
		for _, leg := range s.Legs {
			fmt.Printf("  leg shard=%d dist=%d hops=%d %v\n",
				leg.Shard, leg.Distance, leg.Hops, time.Duration(leg.Nanos))
		}
	}
}

// serveSkewed pushes a skewed stream — a few hot pairs plus background
// noise, the regime where self-adjustment pays — through any lsasg.Service.
// Every send selects on ctx so the producer unblocks if ServeOps returns
// early; the deferred cancel releases it.
func serveSkewed(svc lsasg.Service, total int) (lsasg.ServeStats, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	size := svc.N()
	reqs := make(chan lsasg.Op)
	go func() {
		defer close(reqs)
		rng := rand.New(rand.NewSource(7))
		hot := [][2]int{{3, 90}, {17, 64}, {5, 120}, {44, 101}}
		for i := 0; i < total; i++ {
			p := lsasg.RouteOp(rng.Intn(size), rng.Intn(size))
			if rng.Float64() < 0.8 {
				h := hot[rng.Intn(len(hot))]
				p = lsasg.RouteOp(h[0], h[1])
			} else if p.Src == p.Dst {
				continue
			}
			select {
			case reqs <- p:
			case <-ctx.Done():
				return
			}
		}
	}()
	return svc.ServeOps(ctx, reqs, nil)
}
