package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// manifest is the part of BENCHMARK.json the harness must agree with.
type manifest struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestQuickMatchesManifest runs the whole benchmark at smoke-test size and
// checks it against BENCHMARK.json: every workload runs correct, and every
// declared metric — and nothing else — is emitted exactly once per workload,
// with its declared unit, inside the driver's limits on names and counts.
func TestQuickMatchesManifest(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) > 8 || len(m.EndToEnd) > 16 || len(m.PerLayer) > 128 {
		t.Fatalf("manifest over the limits: %d workloads, %d end-to-end, %d per-layer metrics",
			len(m.Workloads), len(m.EndToEnd), len(m.PerLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	declared := map[bool]map[string]string{false: {}, true: {}} // traced? -> metric -> unit
	for _, e := range m.EndToEnd {
		declared[false][e.Name] = e.Unit
	}
	for _, e := range m.PerLayer {
		declared[true][e.Name] = e.Unit
	}
	if len(declared[false]) != len(m.EndToEnd) || len(declared[true]) != len(m.PerLayer) {
		t.Fatal("a metric name is declared twice")
	}
	if _, ok := declared[false]["setup_s"]; !ok {
		t.Error("setup_s is not an end-to-end metric")
	}

	results, err := runAll(config{seed: 1, seconds: 1, trace: -1, passes: 1, quick: true}, func(result) {})
	if err != nil {
		t.Fatal(err)
	}
	runs := map[string]int{}
	for _, r := range results {
		runs[r.workload]++
		if !r.correct() {
			t.Errorf("%s (traced=%v) is incorrect: %d/%d failed, %v", r.workload, r.traced, r.failed, r.attempted, r.problems)
		}
		if r.attempted < 1 {
			t.Errorf("%s (traced=%v) attempted nothing", r.workload, r.traced)
		}
		seen := map[string]bool{}
		for _, mt := range r.metrics {
			if !name.MatchString(mt.name) {
				t.Errorf("%s: metric name %q is outside the driver's alphabet", r.workload, mt.name)
			}
			if seen[mt.name] {
				t.Errorf("%s (traced=%v): %s emitted twice", r.workload, r.traced, mt.name)
			}
			seen[mt.name] = true
			if unit, ok := declared[r.traced][mt.name]; !ok {
				t.Errorf("%s (traced=%v): %s is not declared in BENCHMARK.json", r.workload, r.traced, mt.name)
			} else if unit != mt.unit {
				t.Errorf("%s: %s has unit %q, declared %q", r.workload, mt.name, mt.unit, unit)
			}
		}
		for want := range declared[r.traced] {
			if !seen[want] {
				t.Errorf("%s (traced=%v): declared metric %s was not emitted", r.workload, r.traced, want)
			}
		}
	}
	if len(m.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the harness has %d", len(m.Workloads), len(workloads))
	}
	for _, w := range m.Workloads {
		if !name.MatchString(w.Name) {
			t.Errorf("workload name %q is outside the driver's alphabet", w.Name)
		}
		if runs[w.Name] != 2 {
			t.Errorf("workload %s ran %d times, want one end-to-end and one traced run", w.Name, runs[w.Name])
		}
	}
}
