package workload

import (
	"math"
	"strings"
	"testing"
)

func allTraceGenerators() []TraceGenerator {
	return []TraceGenerator{
		NoChurn{}, // nil Base defaults to Uniform, like the churn generators
		NoChurn{Base: Uniform{Seed: 1}},
		PoissonChurn{Seed: 2, Rate: 0.1, Base: Zipf{Seed: 2, S: 1.2}},
		PoissonChurn{Seed: 3, Rate: 1.5},
		FlashCrowd{Seed: 4, Period: 20, Burst: 5, Base: Temporal{Seed: 4, W: 8, Churn: 0.1}},
		CorrelatedDepartures{Seed: 5, Period: 25, Burst: 4},
	}
}

// TestTracesAreValid replays every churn generator's trace through the
// membership model: routes only touch live nodes, joins are fresh, leaves
// are live, and the membership never drops below two.
func TestTracesAreValid(t *testing.T) {
	const n, m = 40, 600
	for _, g := range allTraceGenerators() {
		tr, err := g.Trace(n, m)
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		if err := tr.Validate(n); err != nil {
			t.Errorf("%s: %v", g.Name(), err)
		}
		routes, joins, leaves := tr.Counts()
		if routes != m {
			t.Errorf("%s: %d routes, want %d", g.Name(), routes, m)
		}
		t.Logf("%s: %d events (%d routes, %d joins, %d leaves)",
			g.Name(), len(tr), routes, joins, leaves)
	}
}

// TestTracesDeterministic requires identical traces for identical seeds and
// different traces for different seeds.
func TestTracesDeterministic(t *testing.T) {
	for _, g := range allTraceGenerators() {
		a, err := g.Trace(30, 200)
		if err != nil {
			t.Fatal(err)
		}
		b, err := g.Trace(30, 200)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: lengths differ: %d vs %d", g.Name(), len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: event %d differs: %v vs %v", g.Name(), i, a[i], b[i])
			}
		}
	}
}

// TestPoissonChurnVolume checks that the realized membership-event count
// tracks the configured rate (law of large numbers, loose tolerance).
func TestPoissonChurnVolume(t *testing.T) {
	const n, m = 50, 4000
	for _, rate := range []float64{0.05, 0.5, 2} {
		tr, err := PoissonChurn{Seed: 7, Rate: rate}.Trace(n, m)
		if err != nil {
			t.Fatal(err)
		}
		_, joins, leaves := tr.Counts()
		got := float64(joins + leaves)
		want := rate * float64(m)
		if got < 0.8*want || got > 1.2*want {
			t.Errorf("rate %.2f: %v membership events, want ≈ %v", rate, got, want)
		}
	}
}

// TestFlashCrowdShape verifies the arrive-then-dissipate pattern: every
// burst joins Burst fresh nodes and the previous crowd leaves in full, so
// joins and leaves stay within one burst of each other.
func TestFlashCrowdShape(t *testing.T) {
	g := FlashCrowd{Seed: 9, Period: 10, Burst: 3}
	tr, err := g.Trace(20, 300)
	if err != nil {
		t.Fatal(err)
	}
	_, joins, leaves := tr.Counts()
	if joins == 0 || leaves == 0 {
		t.Fatalf("no churn: %d joins, %d leaves", joins, leaves)
	}
	if joins-leaves != g.Burst {
		t.Errorf("joins-leaves = %d, want the one lingering burst %d", joins-leaves, g.Burst)
	}
}

// TestCorrelatedDeparturesAdjacent verifies each failure event removes
// id-adjacent nodes: within one leave burst, the departed ids form a
// contiguous run of the pre-failure live set.
func TestCorrelatedDeparturesAdjacent(t *testing.T) {
	g := CorrelatedDepartures{Seed: 11, Period: 15, Burst: 4}
	const n, m = 30, 300
	tr, err := g.Trace(n, m)
	if err != nil {
		t.Fatal(err)
	}
	live := map[int64]bool{}
	for i := 0; i < n; i++ {
		live[int64(i)] = true
	}
	var burst []int64
	checkBurst := func() {
		if len(burst) < 2 {
			return
		}
		// All departed ids must have been consecutive in the pre-burst live
		// set: no still-live id may fall strictly between min and max.
		min, max := burst[0], burst[0]
		departed := map[int64]bool{}
		for _, id := range burst {
			if id < min {
				min = id
			}
			if id > max {
				max = id
			}
			departed[id] = true
		}
		for id := range live {
			if id > min && id < max && !departed[id] {
				t.Errorf("burst %v skipped still-live id %d", burst, id)
			}
		}
	}
	for _, e := range tr {
		switch e.Op {
		case OpLeave:
			burst = append(burst, e.Node)
		case OpJoin:
			checkBurst()
			for _, id := range burst {
				delete(live, id)
			}
			burst = burst[:0]
			live[e.Node] = true
		default:
			checkBurst()
			for _, id := range burst {
				delete(live, id)
			}
			burst = burst[:0]
		}
	}
	_, joins, leaves := tr.Counts()
	if joins != leaves || joins == 0 {
		t.Errorf("recovery should match failures: %d joins, %d leaves", joins, leaves)
	}
}

// TestTraceGeneratorErrors exercises the error path of every trace
// generator (bad n/m and bad knobs).
func TestTraceGeneratorErrors(t *testing.T) {
	for _, g := range allTraceGenerators() {
		if _, err := g.Trace(1, 100); err == nil {
			t.Errorf("%s: no error for n=1", g.Name())
		}
		if _, err := g.Trace(10, -1); err == nil {
			t.Errorf("%s: no error for m=-1", g.Name())
		}
	}
	if _, err := (PoissonChurn{Rate: -1}).Trace(10, 10); err == nil {
		t.Error("negative rate accepted")
	}
	if _, err := (PoissonChurn{Rate: math.Inf(1)}).Trace(10, 10); err == nil {
		t.Error("infinite rate accepted")
	}
	if _, err := (PoissonChurn{Rate: math.NaN()}).Trace(10, 10); err == nil {
		t.Error("NaN rate accepted")
	}
	if _, err := (FlashCrowd{Period: 0, Burst: 1}).Trace(10, 10); err == nil {
		t.Error("zero period accepted")
	}
	if _, err := (CorrelatedDepartures{Period: 5, Burst: 0}).Trace(10, 10); err == nil {
		t.Error("zero burst accepted")
	}
}

// TestTraceValidateCatchesBadTraces covers the validator's own failure
// modes, which the fuzz harness depends on.
func TestTraceValidateCatchesBadTraces(t *testing.T) {
	cases := []struct {
		name string
		tr   Trace
		want string
	}{
		{"dead route", Trace{{Op: OpRoute, Src: 0, Dst: 99}}, "dead node"},
		{"self route", Trace{{Op: OpRoute, Src: 1, Dst: 1}}, "self route"},
		{"double join", Trace{{Op: OpJoin, Node: 1}}, "joins a live node"},
		{"dead leave", Trace{{Op: OpLeave, Node: 42}}, "leaves a dead node"},
		{"drain", Trace{{Op: OpLeave, Node: 0}}, "below 2"},
	}
	for _, c := range cases {
		err := c.tr.Validate(2)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want contains %q", c.name, err, c.want)
		}
	}
}

// TestParamStringTraceGenerators checks that churn knobs and base-generator
// knobs both land in the canonical parameter string.
func TestParamStringTraceGenerators(t *testing.T) {
	g := PoissonChurn{Seed: 1, Rate: 0.25, Base: Zipf{Seed: 1, S: 1.2}}
	ps := ParamString(g)
	if !strings.Contains(ps, "rate=0.25") || !strings.Contains(ps, "base.s=1.2") {
		t.Errorf("ParamString = %q", ps)
	}
	if ps := ParamString(FlashCrowd{Period: 5, Burst: 2}); !strings.Contains(ps, "period=5") {
		t.Errorf("ParamString = %q", ps)
	}
}

// Counts returns the number of route, join, and leave events.
func (tr Trace) Counts() (routes, joins, leaves int) {
	for _, e := range tr {
		switch e.Op {
		case OpRoute:
			routes++
		case OpJoin:
			joins++
		case OpLeave:
			leaves++
		}
	}
	return routes, joins, leaves
}
