package experiments

import (
	"errors"
	"fmt"

	"lsasg/internal/baseline"
	"lsasg/internal/core"
	"lsasg/internal/shard"
	"lsasg/internal/skipgraph"
	"lsasg/internal/stats"
	"lsasg/internal/workload"
)

// TraceStats is what RunTrace measures over one trace. Routes counts the
// routes served, FailedRoutes the ones the service answered as a miss (an
// unknown or dead endpoint). RouteRepairs and ChurnRepairs count a-balance
// repair actions — dummy insertions plus removals — triggered by routes and
// by the other events. Repairs counts the crash repairs (core.DSG.CrashStats)
// the trace added; a crash is recovered at the first event after which its node
// is gone, and Recovery sums, MaxRecovery maximizes, the events in between.
type TraceStats struct {
	Routes, FailedRoutes, Joins, Leaves, Crashes int

	RouteDistance, TransformRounds int // Σ over served routes
	RouteRepairs, ChurnRepairs     int

	MaxHeight, Validations int

	Repairs, Recovered, Recovery, MaxRecovery int
}

// RunTrace serves a trace on d through a one-shard service (shard.NewOver),
// the step the daemon serves with: a route is ApplyAdjusted, a join is
// AddNode — which must mint the event's id — a leave is RemoveNode, a crash
// is Crash. A crashed node is repaired only when a route contacts it as an
// intermediate, or never; a route to a dead or gone endpoint is a failed
// route that repairs nothing. With validateEvery > 0 the service's Verify
// runs before the trace and after every validateEvery-th event, and a
// violation ends the run.
func RunTrace(d *core.DSG, tr workload.Trace, validateEvery int) (TraceStats, error) {
	svc := shard.NewOver(d, shard.Config{})
	var st TraceStats
	if validateEvery > 0 {
		if err := svc.Verify(); err != nil {
			return st, fmt.Errorf("experiments: invalid before trace: %w", err)
		}
		st.Validations++
	}
	repairs := func() int {
		ins, rem := d.RepairStats()
		return ins + rem
	}
	_, _, rep0 := d.CrashStats()
	crashedAt := make(map[int64]int)
	for i, ev := range tr {
		before := repairs()
		var err error
		switch ev.Op {
		case workload.OpRoute:
			var o shard.Outcome
			o, err = svc.ApplyAdjusted(core.RouteOp(ev.Src, ev.Dst))
			if errors.Is(err, skipgraph.ErrUnknownKey) || errors.Is(err, skipgraph.ErrDeadNode) {
				st.FailedRoutes++
				err = nil
			} else if err == nil {
				st.Routes++
				st.RouteDistance += o.RouteDistance
				st.TransformRounds += o.TransformRounds
			}
		case workload.OpJoin:
			var id int64
			if id, err = svc.AddNode(); err == nil && id != ev.Node {
				err = fmt.Errorf("the service joined id %d", id)
			}
			st.Joins++
		case workload.OpLeave:
			err = svc.RemoveNode(ev.Node)
			st.Leaves++
		case workload.OpCrash:
			err = svc.Crash(ev.Node)
			st.Crashes++
			crashedAt[ev.Node] = i
		default:
			err = fmt.Errorf("unknown op %d", int(ev.Op))
		}
		if err != nil {
			return st, fmt.Errorf("experiments: trace event %d %s: %w", i, ev, err)
		}
		if ev.Op == workload.OpRoute {
			st.RouteRepairs += repairs() - before
		} else {
			st.ChurnRepairs += repairs() - before
		}
		for id, at := range crashedAt {
			if d.NodeByID(id) == nil {
				st.Recovered++
				st.Recovery += i - at
				st.MaxRecovery = max(st.MaxRecovery, i-at)
				delete(crashedAt, id)
			}
		}
		st.MaxHeight = max(st.MaxHeight, svc.Height())
		if validateEvery > 0 && (i+1)%validateEvery == 0 {
			if err := svc.Verify(); err != nil {
				return st, fmt.Errorf("experiments: invariant violated after event %d %s: %w", i, ev, err)
			}
			st.Validations++
		}
	}
	_, _, rep := d.CrashStats()
	st.Repairs = rep - rep0
	return st, nil
}

// churnTrace generates a trace and runs it on a fresh DSG with periodic
// validation (every validateEvery events, so every churn experiment doubles
// as an invariant check).
func churnTrace(n int, g workload.TraceGenerator, m int, seed int64, validateEvery int) (workload.Trace, TraceStats, *core.DSG) {
	tr, err := g.Trace(n, m)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	d := core.New(n, core.Config{A: 4, Seed: seed})
	st, err := RunTrace(d, tr, validateEvery)
	if err != nil {
		panic(err.Error())
	}
	return tr, st, d
}

// perEvent is sum/events, 0 when there were no events.
func perEvent(sum, events int) float64 {
	if events == 0 {
		return 0
	}
	return float64(sum) / float64(events)
}

// staticTrace applies the same trace to the non-adapting baseline and
// returns its mean routing distance per route event.
func staticTrace(n int, tr workload.Trace, seed int64) float64 {
	s := baseline.NewStatic(n, seed)
	total, routes := 0, 0
	for i, ev := range tr {
		var err error
		switch ev.Op {
		case workload.OpRoute:
			var d int
			d, err = s.RouteIDs(ev.Src, ev.Dst)
			total += d
			routes++
		case workload.OpJoin:
			err = s.Join(ev.Node)
		case workload.OpLeave:
			err = s.Leave(ev.Node)
		}
		if err != nil {
			panic(fmt.Sprintf("experiments: static trace event %d: %v", i, err))
		}
	}
	if routes == 0 {
		return 0
	}
	return float64(total) / float64(routes)
}

// churnRates is the Poisson churn sweep shared by E13 and E14: expected
// membership events per route, from none to one-in-two.
var churnRates = []float64{0, 0.05, 0.2, 0.5}

// E13ChurnRouting measures the routing cost of DSG vs the static skip
// graph as Poisson churn intensifies under skewed traffic: does the
// self-adjusting advantage survive continuous joins and leaves?
func E13ChurnRouting(sc Scale) *stats.Table {
	t := stats.NewTable("E13 — routing cost under churn (DSG vs static, Zipf 1.2 traffic)",
		"n", "churn rate", "events", "joins", "leaves", "DSG dist", "static dist", "DSG/static")
	for _, n := range sc.Sizes {
		for _, rate := range churnRates {
			gen := workload.PoissonChurn{Seed: sc.Seed, Rate: rate, Base: workload.Zipf{Seed: sc.Seed, S: 1.2}}
			tr, st, _ := churnTrace(n, gen, sc.Requests, sc.Seed, 100)
			static := staticTrace(n, tr, sc.Seed)
			dist := perEvent(st.RouteDistance, st.Routes)
			ratio := 0.0
			if static > 0 {
				ratio = dist / static
			}
			t.AddRow(n, rate, len(tr), st.Joins, st.Leaves, dist, static, ratio)
		}
	}
	return t
}

// E14ChurnAdjustment measures the adjustment cost of churn: transformation
// rounds per route, balance-repair actions per membership event, and the
// dummy population, across churn rates. Validation runs every 50 events,
// so every row also certifies the full invariant set under that rate.
func E14ChurnAdjustment(sc Scale) *stats.Table {
	t := stats.NewTable("E14 — adjustment cost under churn (Poisson, Zipf 1.2 traffic)",
		"n", "churn rate", "transform rounds/route", "repairs/route", "repairs/churn event", "dummies", "max height", "validations")
	n := sc.Sizes[len(sc.Sizes)-1]
	for _, rate := range churnRates {
		gen := workload.PoissonChurn{Seed: sc.Seed, Rate: rate, Base: workload.Zipf{Seed: sc.Seed, S: 1.2}}
		_, st, d := churnTrace(n, gen, sc.Requests, sc.Seed, 50)
		t.AddRow(n, rate, perEvent(st.TransformRounds, st.Routes), perEvent(st.RouteRepairs, st.Routes),
			perEvent(st.ChurnRepairs, st.Joins+st.Leaves), d.DummyCount(), st.MaxHeight, st.Validations)
	}
	return t
}

// E15ChurnPatterns contrasts churn shapes at comparable volume: memoryless
// Poisson turnover, flash-crowd join bursts, and correlated departures of
// key-adjacent nodes (rack failures), all over working-set traffic.
func E15ChurnPatterns(sc Scale) *stats.Table {
	t := stats.NewTable("E15 — churn patterns (temporal traffic, comparable churn volume)",
		"n", "pattern", "params", "joins", "leaves", "DSG dist", "static dist", "rounds/route")
	n := sc.Sizes[len(sc.Sizes)-1]
	base := func() workload.Generator { return workload.Temporal{Seed: sc.Seed, W: 8, Churn: 0.1} }
	period := 25
	for _, gen := range []workload.TraceGenerator{
		workload.PoissonChurn{Seed: sc.Seed, Rate: 0.2, Base: base()},
		workload.FlashCrowd{Seed: sc.Seed, Period: period, Burst: 5, Base: base()},
		workload.CorrelatedDepartures{Seed: sc.Seed, Period: period, Burst: 5, Base: base()},
	} {
		tr, st, _ := churnTrace(n, gen, sc.Requests, sc.Seed, 100)
		static := staticTrace(n, tr, sc.Seed)
		t.AddRow(n, gen.Name(), workload.ParamString(gen), st.Joins, st.Leaves,
			perEvent(st.RouteDistance, st.Routes), static, perEvent(st.TransformRounds, st.Routes))
	}
	return t
}
