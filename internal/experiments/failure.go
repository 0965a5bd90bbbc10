package experiments

import (
	"time"

	"lsasg/internal/stats"
	"lsasg/internal/workload"
)

// E20CrashAvailability measures availability under crash failures: nodes fail
// in place (no leave-side repair — their neighbours' references dangle at an
// unresponsive peer), the network discovers each failure only when a route
// contacts the corpse, and a decentralized repair then splices the dead node
// out and restores a-balance over exactly its ex-lists. The failure-discovery
// model follows the Rainbow Skip Graph (Goodrich et al., SODA 2006): no
// heartbeat subsystem, failures surface at contact time; the repair locality
// follows the same scoped machinery as graceful leaves (§IV-G), per
// Interlaced's decentralized churn stabilization.
//
// Every event is served by the trace driver (RunTrace) through a one-shard
// service, as dsgserve serves it: a route detects and repairs a corpse it
// meets as an intermediate, and a route *to* a corpse is that op's miss,
// which repairs nothing.
//
// Reported per (pattern, intensity) cell, all deterministic for a fixed seed:
// route availability (fraction of attempted routes that succeeded — Stale > 0
// keeps clients probing recently crashed peers, so availability < 1 exactly
// reflects the stale-view window), crash repairs (≤ crashes; a crash no route
// ever passes through stays dark — every repair here follows a route-contact
// detection, so detections would repeat the column), the repair cost in
// a-balance dummy actions, and time-to-recovery measured in trace events
// between each crash and the first event after which its node is gone.
// Full validation runs every 100 events, so every row also certifies the
// invariant set under that failure intensity. The one
// wall-clock column ("events/s") is exempt from the byte-stable CSV contract,
// per the E18 convention.
func E20CrashAvailability(sc Scale) *stats.Table {
	t := stats.NewTable("E20 — availability under crash failures (contact-time detection, local repair; events/s is wall-clock)",
		"n", "pattern", "params", "events", "crashes", "availability",
		"repairs", "repair dummies", "mean recovery", "max recovery", "events/s")
	n := sc.Sizes[len(sc.Sizes)-1]
	const stale = 0.3
	gens := []workload.TraceGenerator{
		workload.IndependentCrashes{Seed: sc.Seed, Rate: 0, Stale: 0},
		workload.IndependentCrashes{Seed: sc.Seed, Rate: 0.02, Stale: stale},
		workload.IndependentCrashes{Seed: sc.Seed, Rate: 0.1, Stale: stale},
		workload.IndependentCrashes{Seed: sc.Seed, Rate: 0.3, Stale: stale},
		workload.CorrelatedCrashes{Seed: sc.Seed, Period: 25, Burst: 3, Stale: stale},
		workload.FlashFailure{Seed: sc.Seed, Frac: 0.25, Stale: stale},
	}
	for _, gen := range gens {
		start := time.Now()
		tr, st, _ := churnTrace(n, gen, sc.Requests, sc.Seed, 100)
		elapsed := time.Since(start)
		availability := 1.0
		if st.FailedRoutes > 0 {
			availability = float64(st.Routes) / float64(st.Routes+st.FailedRoutes)
		}
		t.AddRow(n, gen.Name(), workload.ParamString(gen), len(tr), st.Crashes,
			availability, st.Repairs, st.RouteRepairs+st.ChurnRepairs,
			perEvent(st.Recovery, st.Recovered), st.MaxRecovery,
			float64(len(tr))/elapsed.Seconds())
	}
	return t
}
