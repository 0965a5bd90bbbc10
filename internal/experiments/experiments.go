package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"lsasg/internal/amf"
	"lsasg/internal/baseline"
	"lsasg/internal/core"
	"lsasg/internal/shard"
	"lsasg/internal/sim"
	"lsasg/internal/skipgraph"
	"lsasg/internal/skiplist"
	"lsasg/internal/stats"
	"lsasg/internal/workingset"
	"lsasg/internal/workload"
)

// Scale shrinks the experiment sizes for quick runs (tests use Quick).
type Scale struct {
	Sizes    []int // node counts for DSG experiments
	Requests int   // requests per run
	Trials   int   // repetitions for randomized subroutines
	Seed     int64
	// LocalitySizes are the node counts for the join/leave locality study
	// (E16). They run far beyond Sizes because sublinear per-event cost
	// only separates from linear at scale; membership events are cheap, so
	// large graphs stay affordable.
	LocalitySizes []int
	// Shards are the shard counts swept by the partitioned-serving study
	// (E18); the -shards flag of cmd/dsgexp overrides them.
	Shards []int
	// Mixes are the KV operation mixes swept by the KV-workload study
	// (E19), as workload.ParseMix inputs; the -mix flag of cmd/dsgexp
	// overrides them.
	Mixes []string
}

// Full is cmd/dsgexp's default scale.
func Full() Scale {
	return Scale{Sizes: []int{64, 128, 256}, Requests: 2000, Trials: 20, Seed: 1,
		LocalitySizes: []int{1024, 4096, 16384},
		Shards:        []int{1, 2, 4, 8},
		Mixes:         []string{"a", "b", "e", "crud"}}
}

// Quick is a fast scale for tests and smoke runs.
func Quick() Scale {
	return Scale{Sizes: []int{32, 64}, Requests: 300, Trials: 5, Seed: 1,
		LocalitySizes: []int{256, 1024},
		Shards:        []int{1, 2, 4},
		Mixes:         []string{"a", "b", "e"}}
}

// E1AMFQuality validates Lemma 1: the AMF output's rank error stays within
// n/(2a) of the true median rank.
func E1AMFQuality(sc Scale) *stats.Table {
	t := stats.NewTable("E1 — AMF approximation quality (Lemma 1: rank within n/2 ± n/2a)",
		"n", "a", "trials", "max|rank-n/2|", "bound n/2a", "ok")
	rng := rand.New(rand.NewSource(sc.Seed))
	for _, n := range []int{100, 400, 1600} {
		for _, a := range []int{2, 4, 8} {
			maxErr := 0.0
			for trial := 0; trial < sc.Trials; trial++ {
				vs := make([]amf.Value, n)
				for i := range vs {
					vs[i] = amf.Finite(int64(rng.Intn(1 << 20)))
				}
				res := amf.Find(vs, a, rng)
				below := 0
				for _, v := range vs {
					if v.Less(res.Median) {
						below++
					}
				}
				// Rank of the returned value (position among n values).
				if e := math.Abs(float64(below) + 0.5 - float64(n)/2); e > maxErr {
					maxErr = e
				}
			}
			bound := float64(n) / float64(2*a)
			t.AddRow(n, a, sc.Trials, maxErr, bound, maxErr <= bound+1)
		}
	}
	return t
}

// E2AMFRounds measures AMF's round cost against the skip-list height
// (expected O(polylog n); the paper's Algorithm 2 analysis).
func E2AMFRounds(sc Scale) *stats.Table {
	t := stats.NewTable("E2 — AMF round cost vs n (a = 4)",
		"n", "mean rounds", "mean height h", "rounds/h^2")
	rng := rand.New(rand.NewSource(sc.Seed + 2))
	for _, n := range []int{128, 512, 2048, 8192} {
		totalR, totalH := 0.0, 0.0
		for trial := 0; trial < sc.Trials; trial++ {
			vs := make([]amf.Value, n)
			for i := range vs {
				vs[i] = amf.Finite(int64(rng.Intn(1 << 20)))
			}
			res := amf.Find(vs, 4, rng)
			totalR += float64(res.Rounds)
			totalH += float64(res.List.Height())
		}
		r := totalR / float64(sc.Trials)
		h := totalH / float64(sc.Trials)
		t.AddRow(n, r, h, r/(h*h))
	}
	return t
}

// dsgRun is what one run of the request step yields: per request its route
// distance, ρ, direct-link level and the graph's height after it, then the
// working-set bound of the sequence and the final graph's height and dummy
// population.
type dsgRun struct {
	dists, rounds, levels, heights []int
	ws                             float64
	height, dummies                int
}

// runDSG is the one driver of E3–E11: it serves a request sequence, one
// route + adjustment at a time, through a one-shard service over the
// balanced graph core.New returns — the step the daemon serves — and has
// the full validator accept the graph it read its numbers off.
func runDSG(n int, a int, reqs []workload.Request, seed int64) dsgRun {
	d := core.New(n, core.Config{A: a, Seed: seed})
	svc := shard.NewOver(d, shard.Config{})
	bound := workingset.NewBound(n)
	var run dsgRun
	for _, r := range reqs {
		bound.Add(r.Src, r.Dst)
		o, err := svc.ApplyAdjusted(core.RouteOp(int64(r.Src), int64(r.Dst)))
		if err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
		run.dists = append(run.dists, o.RouteDistance)
		run.rounds = append(run.rounds, o.TransformRounds)
		run.levels = append(run.levels, o.DirectLevel)
		run.heights = append(run.heights, svc.Height())
	}
	if err := svc.Verify(); err != nil {
		panic(fmt.Sprintf("experiments: n=%d a=%d: %v", n, a, err))
	}
	run.ws, run.height, run.dummies = bound.Total(), svc.Height(), svc.DummyCount()
	return run
}

// baselineDists serves a request sequence on a comparison system and returns
// the per-request distances.
func baselineDists(reqs []workload.Request, request func(u, v int) (int, error)) []int {
	dists := make([]int, len(reqs))
	for i, r := range reqs {
		d, err := request(r.Src, r.Dst)
		if err != nil {
			panic(err)
		}
		dists[i] = d
	}
	return dists
}

// uniformPairs draws m/2 uniform pairs over n nodes from rng, dropping the
// self-pairs (E3 and E4's traffic).
func uniformPairs(rng *rand.Rand, n, m int) []workload.Request {
	var reqs []workload.Request
	for i := 0; i < m/2; i++ {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			reqs = append(reqs, workload.Request{Src: u, Dst: v})
		}
	}
	return reqs
}

// E3DirectLevel validates Lemma 4: the pair's direct-link level stays at
// most log_{2a/(a+1)} n (plus approximation slack).
func E3DirectLevel(sc Scale) *stats.Table {
	t := stats.NewTable("E3 — direct-link level (Lemma 4: ≤ log_{2a/(a+1)} n)",
		"n", "a", "max level", "bound", "ok")
	for _, n := range sc.Sizes {
		for _, a := range []int{2, 4} {
			rng := rand.New(rand.NewSource(sc.Seed + int64(n)))
			maxLvl := stats.MaxInts(runDSG(n, a, uniformPairs(rng, n, sc.Requests), sc.Seed).levels)
			bound := math.Log(float64(n)) / math.Log(2*float64(a)/(float64(a)+1))
			t.AddRow(n, a, maxLvl, bound, float64(maxLvl) <= bound+3)
		}
	}
	return t
}

// E4Height validates Lemma 5: the height after any transformation stays at
// most log_{3/2} n.
func E4Height(sc Scale) *stats.Table {
	t := stats.NewTable("E4 — height after transformation (Lemma 5: ≤ log_{3/2} n)",
		"n", "max height", "bound", "ok")
	for _, n := range sc.Sizes {
		rng := rand.New(rand.NewSource(sc.Seed + int64(2*n)))
		maxH := stats.MaxInts(runDSG(n, 4, uniformPairs(rng, n, sc.Requests), sc.Seed).heights)
		bound := math.Log(float64(n)) / math.Log(1.5)
		t.AddRow(n, maxH, bound, float64(maxH) <= bound+3)
	}
	return t
}

// E5WorkingSetProperty validates Theorem 2: routing distance between
// previously communicating pairs is O(log T_t(u,v)). Reported is the p99
// and max of distance / (log2 T + 1).
func E5WorkingSetProperty(sc Scale) *stats.Table {
	t := stats.NewTable("E5 — working-set property (Theorem 2: d(u,v) = O(log T))",
		"n", "workload", "params", "checked", "mean ratio", "p99 ratio", "max ratio")
	for _, n := range sc.Sizes {
		for _, gen := range []workload.Generator{
			workload.Temporal{Seed: sc.Seed, W: 8, Churn: 0.1},
			workload.Zipf{Seed: sc.Seed, S: 1.2},
		} {
			reqs := gen.Generate(n, sc.Requests)
			run := runDSG(n, 4, reqs, sc.Seed)
			tracker := workingset.NewTracker(n)
			var ratios []float64
			for i, r := range reqs {
				// A previously communicating pair: its route, measured by the
				// step before it transformed, against log T.
				if tNum := tracker.WorkingSetNumber(r.Src, r.Dst); tNum < n {
					ratios = append(ratios, float64(run.dists[i])/(math.Log2(float64(tNum))+1))
				}
				tracker.Record(r.Src, r.Dst)
			}
			s := stats.Summarize(ratios)
			t.AddRow(n, gen.Name(), workload.ParamString(gen), s.N, s.Mean, s.P99, s.Max)
		}
	}
	return t
}

// E6RoutingVsWS validates Theorems 1+4: DSG's total routing cost is within
// a constant factor of the working-set bound WS(σ).
func E6RoutingVsWS(sc Scale) *stats.Table {
	t := stats.NewTable("E6 — routing cost vs working-set bound (Theorem 4: constant factor)",
		"n", "workload", "params", "Σ(d+1)", "WS(σ)", "ratio")
	for _, n := range sc.Sizes {
		for _, gen := range workload.Suite(sc.Seed) {
			reqs := gen.Generate(n, sc.Requests)
			run := runDSG(n, 4, reqs, sc.Seed)
			total := 0.0
			for _, d := range run.dists {
				total += float64(d) + 1
			}
			t.AddRow(n, gen.Name(), workload.ParamString(gen), total, run.ws, total/math.Max(run.ws, 1))
		}
	}
	return t
}

// E7TotalCostVsWS validates Theorems 3+5: routing plus transformation cost
// is within an O(log n)-ish factor of WS(σ).
func E7TotalCostVsWS(sc Scale) *stats.Table {
	t := stats.NewTable("E7 — total cost vs working-set bound (Theorem 5: O(log) factor)",
		"n", "workload", "params", "Σcost", "WS(σ)", "ratio", "ratio/log2 n")
	for _, n := range sc.Sizes {
		for _, gen := range []workload.Generator{
			workload.Temporal{Seed: sc.Seed, W: 8, Churn: 0.1},
			workload.Uniform{Seed: sc.Seed},
		} {
			reqs := gen.Generate(n, sc.Requests)
			run := runDSG(n, 4, reqs, sc.Seed)
			total := 0.0
			for i, d := range run.dists {
				total += float64(d + run.rounds[i] + 1) // the service cost d + ρ + 1 (§III)
			}
			ratio := total / math.Max(run.ws, 1)
			t.AddRow(n, gen.Name(), workload.ParamString(gen), total, run.ws, ratio, ratio/math.Log2(float64(n)))
		}
	}
	return t
}

// E8Comparison is the headline study: mean routing distance per request of
// DSG vs the static skip graph vs SplayNet across workload skews.
func E8Comparison(sc Scale) *stats.Table {
	t := stats.NewTable("E8 — mean routing distance: DSG vs static skip graph vs SplayNet",
		"n", "workload", "params", "DSG", "static", "SplayNet", "DSG/static")
	n := sc.Sizes[len(sc.Sizes)-1]
	for _, gen := range workload.Suite(sc.Seed) {
		reqs := gen.Generate(n, sc.Requests)
		meanDSG := stats.MeanInts(runDSG(n, 4, reqs, sc.Seed).dists)
		meanStatic := stats.MeanInts(baselineDists(reqs, baseline.NewStatic(n, sc.Seed).Request))
		meanSplay := stats.MeanInts(baselineDists(reqs, baseline.NewSplayNet(n).Request))
		t.AddRow(n, gen.Name(), workload.ParamString(gen), meanDSG, meanStatic, meanSplay,
			meanDSG/math.Max(meanStatic, 0.001))
	}
	return t
}

// E9TemporalSweep shows the cost as a function of working-set size W: the
// smaller the active set, the bigger DSG's win.
func E9TemporalSweep(sc Scale) *stats.Table {
	t := stats.NewTable("E9 — temporal locality sweep (mean distance vs working-set size W)",
		"n", "W", "DSG", "static", "WS(σ)/m")
	n := sc.Sizes[len(sc.Sizes)-1]
	for _, w := range []int{4, 8, 16, 32} {
		gen := workload.Temporal{Seed: sc.Seed, W: w, Churn: 0.05}
		reqs := gen.Generate(n, sc.Requests)
		run := runDSG(n, 4, reqs, sc.Seed)
		stDists := baselineDists(reqs, baseline.NewStatic(n, sc.Seed).Request)
		t.AddRow(n, w, stats.MeanInts(run.dists), stats.MeanInts(stDists), run.ws/float64(len(reqs)))
	}
	return t
}

// E10WorstCase contrasts DSG's per-request O(log n) guarantee with
// SplayNet's amortized-only guarantee: the max single-request distance on
// an adversarial sequence, and whether DSG's stays within the a·H bound.
func E10WorstCase(sc Scale) *stats.Table {
	t := stats.NewTable("E10 — worst single-request distance (adversarial workload)",
		"n", "DSG max", "DSG mean", "SplayNet max", "SplayNet mean", "a·H bound", "ok")
	for _, n := range sc.Sizes {
		reqs := workload.Adversarial{Seed: sc.Seed}.Generate(n, sc.Requests)
		dists := runDSG(n, 4, reqs, sc.Seed).dists
		snDists := baselineDists(reqs, baseline.NewSplayNet(n).Request)
		bound := 4 * (int(math.Log(float64(n))/math.Log(1.5)) + 3)
		maxDist := stats.MaxInts(dists)
		t.AddRow(n, maxDist, stats.MeanInts(dists),
			stats.MaxInts(snDists), stats.MeanInts(snDists), bound, maxDist <= bound)
	}
	return t
}

// E11BalanceAblation sweeps the a-balance parameter: the height/dummy/cost
// trade-off called out in DESIGN.md.
func E11BalanceAblation(sc Scale) *stats.Table {
	t := stats.NewTable("E11 — a-balance ablation (Zipf 1.2 workload)",
		"n", "a", "mean dist", "mean transform rounds", "final height", "dummies")
	// The a=2 configuration maintains dummies aggressively; the ablation
	// uses the middle size so the sweep completes in reasonable time.
	n := sc.Sizes[len(sc.Sizes)/2]
	reqs := workload.Zipf{Seed: sc.Seed, S: 1.2}.Generate(n, sc.Requests)
	for _, a := range []int{2, 3, 4, 8} {
		run := runDSG(n, a, reqs, sc.Seed)
		t.AddRow(n, a, stats.MeanInts(run.dists), stats.MeanInts(run.rounds), run.height, run.dummies)
	}
	return t
}

// E12SimValidation cross-checks the sequential round accounting against
// genuinely distributed executions on the CONGEST engine.
func E12SimValidation(sc Scale) *stats.Table {
	t := stats.NewTable("E12 — distributed cross-validation (CONGEST engine)",
		"check", "n", "trials", "mismatches", "note")
	rng := rand.New(rand.NewSource(sc.Seed + 12))
	n := 64
	g := skipgraph.NewRandom(n, sc.Seed)
	mism := 0
	for i := 0; i < sc.Trials*5; i++ {
		a := int64(rng.Intn(n))
		b := int64(rng.Intn(n))
		seq, err := g.RouteKeys(skipgraph.KeyOf(a), skipgraph.KeyOf(b))
		if err != nil {
			panic(err)
		}
		dist, err := sim.DistributedRoute(g, skipgraph.KeyOf(a), skipgraph.KeyOf(b))
		if err != nil {
			panic(err)
		}
		if int(dist.Hops) != seq.Hops() {
			mism++
		}
	}
	t.AddRow("routing hops", n, sc.Trials*5, mism, "token-passing == sequential")

	mism = 0
	for i := 0; i < sc.Trials; i++ {
		sl := skiplist.Build(200, 4, rng)
		values := make([]int64, 200)
		var want int64
		for j := range values {
			values[j] = int64(rng.Intn(50))
			want += values[j]
		}
		out, err := sim.DistributedSum(sl, values)
		if err != nil {
			panic(err)
		}
		_, seqRounds := sl.Sum(values)
		if out.Total != want || out.Rounds > seqRounds {
			mism++
		}
	}
	t.AddRow("skip-list sum", 200, sc.Trials, mism, "pipelined rounds ≤ sequential estimate")
	return t
}
