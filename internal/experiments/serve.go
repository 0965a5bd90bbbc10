package experiments

import (
	"context"
	"time"

	"lsasg/internal/core"
	"lsasg/internal/serve"
	"lsasg/internal/stats"
	"lsasg/internal/workload"
)

// E17ThroughputScaling measures the serving engine's batch pipeline — the
// path dsgserve runs: p workers route each batch on the live graph, then the
// batch's transformations are applied in request order. Reported per
// (trace, p) cell: wall-clock requests/sec, the routing quality, the number
// of batches (the column keeps its historical "snapshots" header so the
// golden CSV stands), and the mean adjustment lag (a request's 1-based
// position in its batch).
//
// Per the E18 convention, the "req/s" column is a wall-clock measurement
// and exempt from dsgexp's byte-identical-CSV contract; every other column
// is deterministic for a fixed seed — and identical across the p rows of a
// trace, since the pipeline's statistics are independent of Parallelism.
// The golden test pins both.
func E17ThroughputScaling(sc Scale) *stats.Table {
	t := stats.NewTable("E17 — serving throughput scaling (req/s is wall-clock; parallel routing, then batched adjustment)",
		"trace", "p", "n", "requests", "req/s", "mean dist", "snapshots", "mean lag")
	n := sc.Sizes[len(sc.Sizes)-1]
	m := sc.Requests
	traces := []struct {
		name string
		gen  workload.Generator
	}{
		{"uniform", workload.Uniform{Seed: sc.Seed}},
		{"zipf", workload.Zipf{Seed: sc.Seed, S: 1.2}},
	}
	for _, tr := range traces {
		reqs := tr.gen.Generate(n, m)
		for _, p := range []int{1, 2, 4, 8} {
			d := core.New(n, core.Config{A: 4, Seed: sc.Seed})
			e := serve.New(d, serve.Config{Parallelism: p, BatchSize: 32})
			in := make(chan core.Op)
			go func() {
				defer close(in)
				for _, r := range reqs {
					in <- core.RouteOp(int64(r.Src), int64(r.Dst))
				}
			}()
			start := time.Now()
			st, err := e.Serve(context.Background(), in)
			if err != nil {
				panic(err) // generator ids are always routable
			}
			reqPerSec := float64(st.Requests) / time.Since(start).Seconds()
			t.AddRow(tr.name, p, n, st.Requests, reqPerSec, st.MeanRouteDistance(),
				st.Batches, st.MeanAdjustLag())
		}
	}
	return t
}
