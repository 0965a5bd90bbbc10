package main

import (
	"strings"
	"testing"
)

// loadE2E reads the two fixture runs (the numbers ISSUE 19 was sized with:
// two of the four workloads, each with an end_to_end and — to be skipped — a
// per_layer entry) and the repository's own manifest.
func loadE2E(t *testing.T) (m manifest, parent, change map[string]e2eRun) {
	t.Helper()
	if err := readJSON("../../BENCHMARK.json", &m); err != nil {
		t.Fatal(err)
	}
	parent, err := readE2E("testdata/e2e_parent.json")
	if err != nil {
		t.Fatal(err)
	}
	change, err = readE2E("testdata/e2e_change.json")
	if err != nil {
		t.Fatal(err)
	}
	return m, parent, change
}

func verdictFor(t *testing.T, verdicts []string, workload, metric string) string {
	t.Helper()
	for _, v := range verdicts {
		if f := strings.Fields(v); len(f) > 2 && f[1] == workload && f[2] == metric {
			return f[0]
		}
	}
	t.Fatalf("no verdict for %s / %s in:\n%s", workload, metric, strings.Join(verdicts, "\n"))
	return ""
}

func TestCompareE2E(t *testing.T) {
	m, parent, change := loadE2E(t)
	verdicts, failed := compareE2E(m, parent, change)
	if failed != 0 {
		t.Fatalf("%d failures on a change inside every bound:\n%s", failed, strings.Join(verdicts, "\n"))
	}
	// Two workloads ran, ten end-to-end metrics each; the workloads the
	// files do not hold and the per_layer entries produce no line.
	if len(verdicts) != 2*len(m.EndToEnd) {
		t.Fatalf("%d verdict lines, want %d:\n%s", len(verdicts), 2*len(m.EndToEnd), strings.Join(verdicts, "\n"))
	}
	for _, tc := range []struct{ workload, metric, want string }{
		// +1.58 % on a 2 % bound: worse, and inside.
		{"kv-crud-n512-s4", "transform_rounds_per_op", "inside"},
		{"kv-crud-n512-s4", "setup_s", "inside"},
		{"kv-crud-n512-s4", "dummy_ratio", "better"},
		// higher is better: 421 → 667 is a gain, not a +58 % regression.
		{"route-zipf-n512", "ops_per_s", "better"},
		{"route-zipf-n512", "route_dist_max", "better"},
	} {
		if got := verdictFor(t, verdicts, tc.workload, tc.metric); got != tc.want {
			t.Errorf("%s / %s: %s, want %s", tc.workload, tc.metric, got, tc.want)
		}
	}
}

func TestCompareE2EFailures(t *testing.T) {
	m, parent, change := loadE2E(t)
	// The same two runs the other way round: every gain is a regression.
	verdicts, failed := compareE2E(m, change, parent)
	if failed == 0 {
		t.Fatal("swapped runs passed the gate")
	}
	if got := verdictFor(t, verdicts, "route-zipf-n512", "ops_per_s"); got != "WORSE" {
		t.Errorf("667 → 421 ops/s: %s, want WORSE", got)
	}
	if got := verdictFor(t, verdicts, "kv-crud-n512-s4", "transform_rounds_per_op"); got != "inside" {
		t.Errorf("235.443 → 231.780 rounds: %s, want inside", got)
	}

	// A larger failed share, a vanished metric and a vanished workload each
	// fail on their own.
	broken := change["route-zipf-n512"]
	broken.Failed = 3
	delete(broken.Metrics, "lat_p90_ms")
	verdicts, failed = compareE2E(m, parent, map[string]e2eRun{"route-zipf-n512": broken})
	if failed != 3 {
		t.Fatalf("%d failures, want 3 (failed share, missing metric, missing workload):\n%s",
			failed, strings.Join(verdicts, "\n"))
	}
	if got := verdictFor(t, verdicts, "route-zipf-n512", "failed"); got != "WORSE" {
		t.Errorf("0 → 3 failed operations: %s, want WORSE", got)
	}
}

func TestWorseningZeroParent(t *testing.T) {
	lower, higher := e2eMetric{Better: "lower"}, e2eMetric{Better: "higher"}
	if worsening(lower, 0, 0) != 0 || worsening(lower, 0, 1) <= 1 || worsening(higher, 0, 1) >= -1 {
		t.Fatal("a zero parent: equal is unchanged, growth is unboundedly worse for lower-is-better and better for higher-is-better")
	}
}
