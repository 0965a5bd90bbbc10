package core

import (
	"fmt"

	"lsasg/internal/workload"
)

// TraceOptions controls how a DSG consumes a workload trace.
type TraceOptions struct {
	// ValidateEvery runs the full-graph validator after every k-th event
	// (1 = after every event); 0 disables validation. A violation aborts
	// the run with the offending event in the error.
	ValidateEvery int
	// OnEvent, when non-nil, observes every applied event and its cost.
	OnEvent func(i int, ev workload.Event, cost EventCost)
}

// EventCost is the cost of one applied trace event in the paper's measures.
type EventCost struct {
	// RouteDistance and TransformRounds are set for route events (§III).
	RouteDistance   int
	TransformRounds int
	// RepairDummies counts the a-balance repair actions (dummy insertions
	// plus removals) the event triggered — §IV-G's adjustment cost for
	// joins/leaves, plus the sweep that fixes violations a transformation
	// leaked outside its region.
	RepairDummies int
}

// TraceStats aggregates one trace run. Adjustment cost covers both the
// self-adjusting transformations (rounds) and the membership repairs
// (dummies inserted to restore a-balance after joins/leaves).
type TraceStats struct {
	Routes, Joins, Leaves int

	RouteDistance   int // Σ d_S(σ) over route events
	TransformRounds int // Σ ρ over route events
	RepairDummies   int // Σ balance-repair actions over all events
	RouteRepairs    int // repair actions attributable to route events
	ChurnRepairs    int // repair actions attributable to joins/leaves

	MaxHeight   int // highest graph height observed after any event
	Validations int // number of full-graph validations performed

	// Crash-failure measures (experiment E20). Routes counts only routes
	// that succeeded; FailedRoutes counts availability probes that targeted
	// a crashed (or already-repaired) peer. A failed probe against a peer
	// still marked dead doubles as its failure detection.
	Crashes         int // crash events applied
	FailedRoutes    int // routes that failed against a crashed peer
	CrashDetections int // dead peers detected at route/transform time
	CrashRepairs    int // crash repairs completed (nodes spliced out)
	// RecoveredCrashes counts crashes whose repair happened within the
	// trace; RecoveryEvents sums, and MaxRecoveryEvents maximizes, the
	// number of trace events between each crash and its repair — the
	// deterministic time-to-recovery measure.
	RecoveredCrashes  int
	RecoveryEvents    int
	MaxRecoveryEvents int
}

// MeanRouteDistance returns the mean routing distance per route event.
func (s TraceStats) MeanRouteDistance() float64 {
	if s.Routes == 0 {
		return 0
	}
	return float64(s.RouteDistance) / float64(s.Routes)
}

// MeanTransformRounds returns the mean transformation rounds per route.
func (s TraceStats) MeanTransformRounds() float64 {
	if s.Routes == 0 {
		return 0
	}
	return float64(s.TransformRounds) / float64(s.Routes)
}

// RepairDummiesPerChurn returns the mean balance-repair actions per
// membership event.
func (s TraceStats) RepairDummiesPerChurn() float64 {
	if s.Joins+s.Leaves == 0 {
		return 0
	}
	return float64(s.ChurnRepairs) / float64(s.Joins+s.Leaves)
}

// RepairDummiesPerRoute returns the mean balance-repair actions per route
// event.
func (s TraceStats) RepairDummiesPerRoute() float64 {
	if s.Routes == 0 {
		return 0
	}
	return float64(s.RouteRepairs) / float64(s.Routes)
}

// RouteSuccessRate returns the fraction of attempted routes that succeeded —
// the availability measure under crash failures (1.0 with no failed probes).
func (s TraceStats) RouteSuccessRate() float64 {
	attempted := s.Routes + s.FailedRoutes
	if attempted == 0 {
		return 1
	}
	return float64(s.Routes) / float64(attempted)
}

// MeanRecoveryEvents returns the mean number of trace events between a crash
// and its repair, over the crashes repaired within the trace.
func (s TraceStats) MeanRecoveryEvents() float64 {
	if s.RecoveredCrashes == 0 {
		return 0
	}
	return float64(s.RecoveryEvents) / float64(s.RecoveredCrashes)
}

// RunTrace consumes a dynamic workload: route events are served by the
// step (Serve: route, then the full self-adjusting machinery, §IV-C–F — the
// step a shard serves every op with), joins and leaves go through the
// membership path with a-balance repair (§IV-G), and the per-node DSG state
// (timestamps, groups, bases) persists across membership changes — a join
// or leave never resets the working-set structure the previous routes
// built. The runner repairs nothing itself: every event leaves the graph
// balanced — a route's AdjustAccess repairs exactly what its transformation
// dirtied, joins and leaves repair their own touched lists inside
// Add/RemoveNode, and the constructor repaired the initial topology — so the
// validator's guarantees hold from event zero.
//
// Crash events (workload.OpCrash) mark the node dead in place — no repair
// runs until a route detects the failure. Routes whose path crosses a dead
// intermediate detect and repair it inside the step, then re-route. Routes
// that target a crashed peer fail (availability probes, counted in
// FailedRoutes) and trigger the peer's repair: that repair of a dead
// destination is the trace runner's own policy — the step leaves a dead
// endpoint to the caller. Per-crash time-to-recovery is the event distance
// between the crash and its repair.
func (d *DSG) RunTrace(tr workload.Trace, opts TraceOptions) (TraceStats, error) {
	var st TraceStats
	if opts.ValidateEvery > 0 {
		if err := d.Validate(); err != nil {
			return st, fmt.Errorf("core: invalid before trace: %w", err)
		}
		st.Validations++
	}
	repairWork := func() int {
		ins, rem := d.RepairStats()
		return ins + rem
	}
	_, det0, rep0 := d.CrashStats()
	d.DrainCrashRepairs() // discard repairs from before this trace
	crashEvent := make(map[int64]int)
	for i, ev := range tr {
		var cost EventCost
		before := repairWork()
		switch ev.Op {
		case workload.OpRoute:
			if vNode := d.NodeByID(ev.Dst); vNode == nil || vNode.Dead() {
				// Availability probe from a stale client view: the
				// destination crashed (and may already be repaired away).
				// The failed contact attempt is itself the failure
				// detection when the peer is still marked dead.
				if vNode != nil {
					d.crashDetectCount++
					d.repairCrashed(vNode)
				}
				st.FailedRoutes++
			} else {
				res, err := d.Serve(ev.Src, ev.Dst)
				if err != nil {
					return st, fmt.Errorf("core: trace event %d %s: %w", i, ev, err)
				}
				st.Routes++
				st.RouteDistance += res.RouteDistance
				st.TransformRounds += res.TransformRounds
				cost.RouteDistance = res.RouteDistance
				cost.TransformRounds = res.TransformRounds
			}
		case workload.OpJoin:
			if _, err := d.Add(ev.Node); err != nil {
				return st, fmt.Errorf("core: trace event %d %s: %w", i, ev, err)
			}
			st.Joins++
		case workload.OpLeave:
			if err := d.RemoveNode(ev.Node); err != nil {
				return st, fmt.Errorf("core: trace event %d %s: %w", i, ev, err)
			}
			st.Leaves++
		case workload.OpCrash:
			if err := d.Crash(ev.Node); err != nil {
				return st, fmt.Errorf("core: trace event %d %s: %w", i, ev, err)
			}
			st.Crashes++
			crashEvent[ev.Node] = i
		default:
			return st, fmt.Errorf("core: trace event %d has unknown op %d", i, int(ev.Op))
		}
		for _, id := range d.DrainCrashRepairs() {
			ce, ok := crashEvent[id]
			if !ok {
				continue
			}
			gap := i - ce
			st.RecoveredCrashes++
			st.RecoveryEvents += gap
			if gap > st.MaxRecoveryEvents {
				st.MaxRecoveryEvents = gap
			}
			delete(crashEvent, id)
		}
		cost.RepairDummies = repairWork() - before
		st.RepairDummies += cost.RepairDummies
		if ev.Op == workload.OpRoute {
			st.RouteRepairs += cost.RepairDummies
		} else {
			st.ChurnRepairs += cost.RepairDummies
		}
		if h := d.g.Height(); h > st.MaxHeight {
			st.MaxHeight = h
		}
		if opts.ValidateEvery > 0 && (i+1)%opts.ValidateEvery == 0 {
			if err := d.Validate(); err != nil {
				return st, fmt.Errorf("core: invariant violated after event %d %s: %w", i, ev, err)
			}
			st.Validations++
		}
		if opts.OnEvent != nil {
			opts.OnEvent(i, ev, cost)
		}
	}
	_, det, rep := d.CrashStats()
	st.CrashDetections = det - det0
	st.CrashRepairs = rep - rep0
	return st, nil
}
