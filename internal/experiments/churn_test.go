package experiments

import (
	"slices"
	"testing"

	"lsasg/internal/core"
	"lsasg/internal/workload"
)

// TestRunTraceValidatesEveryEvent drives every churn and crash generator
// shape through the trace driver with the full validator after every
// event.
func TestRunTraceValidatesEveryEvent(t *testing.T) {
	const n, m = 32, 150
	gens := []workload.TraceGenerator{
		workload.NoChurn{Base: workload.Zipf{Seed: 1, S: 1.2}},
		workload.PoissonChurn{Seed: 2, Rate: 0.2, Base: workload.Temporal{Seed: 2, W: 8, Churn: 0.1}},
		workload.FlashCrowd{Seed: 3, Period: 20, Burst: 4},
		workload.CorrelatedDepartures{Seed: 4, Period: 25, Burst: 3},
		workload.IndependentCrashes{Seed: 5, Rate: 0.1, Stale: 0.3},
		workload.CorrelatedCrashes{Seed: 6, Period: 25, Burst: 3, Stale: 0.3},
		workload.FlashFailure{Seed: 7, Frac: 0.25, Stale: 0.3},
	}
	for _, a := range []int{2, 4} {
		for _, g := range gens {
			tr, err := g.Trace(n, m)
			if err != nil {
				t.Fatalf("a=%d %s: %v", a, g.Name(), err)
			}
			st, err := RunTrace(core.New(n, core.Config{A: a, Seed: int64(a)}), tr, 1)
			if err != nil {
				t.Fatalf("a=%d %s: %v", a, g.Name(), err)
			}
			if st.Routes+st.FailedRoutes != m || (st.Crashes == 0 && st.FailedRoutes != 0) {
				t.Errorf("a=%d %s: %d routes + %d failed, want %d, none failed without a crash",
					a, g.Name(), st.Routes, st.FailedRoutes, m)
			}
			if st.Validations != len(tr)+1 {
				t.Errorf("a=%d %s: %d validations, want %d", a, g.Name(), st.Validations, len(tr)+1)
			}
			t.Logf("a=%d %s: %+v", a, g.Name(), st)
		}
	}
}

// TestStaleProbeIsAMiss: a route to a crashed destination is what the
// daemon answers it with — a miss that detects and repairs nothing; the
// corpse waits for a route that contacts it as an intermediate. A route to
// a node that left is a miss too.
func TestStaleProbeIsAMiss(t *testing.T) {
	d := core.New(16, core.Config{A: 4, Seed: 5})
	st, err := RunTrace(d, workload.Trace{
		{Op: workload.OpCrash, Node: 6},
		{Op: workload.OpRoute, Src: 2, Dst: 6},
		{Op: workload.OpLeave, Node: 9},
		{Op: workload.OpRoute, Src: 2, Dst: 9},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Crashes != 1 || st.FailedRoutes != 2 || st.Routes != 0 {
		t.Errorf("stats = %+v, want 1 crash, 2 failed routes, none served", st)
	}
	if _, det, _ := d.CrashStats(); det != 0 || st.Repairs != 0 || st.Recovered != 0 {
		t.Errorf("stats = %+v, %d detections; want no detection, repair or recovery", st, det)
	}
	if ids := d.CrashedIDs(); !slices.Equal(ids, []int64{6}) {
		t.Errorf("crashed ids = %v after the probe, want [6]", ids)
	}
}

// TestRunTraceRejectsBadEvents covers the error paths: a join whose id is
// not the one AddNode mints, endpoints outside the key space, and an
// unknown op.
func TestRunTraceRejectsBadEvents(t *testing.T) {
	for i, tr := range []workload.Trace{
		{{Op: workload.OpJoin, Node: 3}},
		{{Op: workload.OpJoin, Node: 9}},
		{{Op: workload.OpRoute, Src: 99, Dst: 0}},
		{{Op: workload.OpRoute, Src: 0, Dst: 99}},
		{{Op: workload.OpLeave, Node: 99}},
		{{Op: workload.OpCrash, Node: 99}},
		{{Op: workload.Op(9)}},
	} {
		if _, err := RunTrace(core.New(8, core.Config{A: 4, Seed: 1}), tr, 0); err == nil {
			t.Errorf("case %d %s: no error", i, tr[0])
		}
	}
	st, err := RunTrace(core.New(8, core.Config{A: 4, Seed: 1}), workload.Trace{{Op: workload.OpJoin, Node: 8}}, 1)
	if err != nil || st.Joins != 1 {
		t.Errorf("join of the next fresh id: %+v, %v", st, err)
	}
}
