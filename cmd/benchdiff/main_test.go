package main

import (
	"regexp"
	"strings"
	"testing"
)

const oldBench = `goos: linux
BenchmarkE10_RouteOnly-4    500000   1000 ns/op   12 B/op  1 allocs/op
BenchmarkE10_RouteOnly-4    480000   1050 ns/op   12 B/op  1 allocs/op
BenchmarkE13_ChurnTrace-4       50  90000 ns/op
BenchmarkE16_Join/n=1024-4    2000   4000 ns/op
BenchmarkGone_Thing-4         1000   1111 ns/op
BenchmarkE3_ServeUniform-4    1000  50000 ns/op
BenchmarkSnapshotPublish/n=1024-4   100  7000 ns/op  4000 B/op  40 allocs/op
BenchmarkZeroAlloc-4        100000    500 ns/op     0 B/op  0 allocs/op
PASS
`

const newBench = `goos: linux
BenchmarkE10_RouteOnly-4    500000   1300 ns/op   12 B/op  1 allocs/op
BenchmarkE10_RouteOnly-4    480000   1200 ns/op   12 B/op  1 allocs/op
BenchmarkE13_ChurnTrace-4       50  91000 ns/op
BenchmarkE16_Join/n=1024-4    2000   3000 ns/op
BenchmarkE17_ServeParallel/p=4-4  9999  100 ns/op  0.25 applied/req
BenchmarkE3_ServeUniform-4    1000 500000 ns/op
BenchmarkSnapshotPublish/n=1024-4   100  7100 ns/op  9000 B/op  44 allocs/op
BenchmarkZeroAlloc-4        100000    510 ns/op    64 B/op  2 allocs/op
PASS
`

func parseString(t *testing.T, s string) samples {
	t.Helper()
	res, err := parse(strings.NewReader(s))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestParse(t *testing.T) {
	res := parseString(t, oldBench)
	if got := len(res["BenchmarkE10_RouteOnly"]["ns/op"]); got != 2 {
		t.Fatalf("E10 ns/op samples = %d, want 2 (procs suffix stripped, counts collected)", got)
	}
	if got := res["BenchmarkE10_RouteOnly"]["allocs/op"]; len(got) != 2 || got[0] != 1 {
		t.Errorf("E10 allocs/op samples = %v, want [1 1]", got)
	}
	if res["BenchmarkE13_ChurnTrace"]["ns/op"][0] != 90000 {
		t.Errorf("E13 ns/op = %v", res["BenchmarkE13_ChurnTrace"]["ns/op"])
	}
	if _, ok := res["BenchmarkE13_ChurnTrace"]["B/op"]; ok {
		t.Error("E13 carried no -benchmem columns but B/op parsed")
	}
	if _, ok := res["BenchmarkE16_Join/n=1024"]; !ok {
		t.Error("sub-benchmark name not preserved")
	}
	if got := res["BenchmarkSnapshotPublish/n=1024"]["B/op"]; len(got) != 1 || got[0] != 4000 {
		t.Errorf("SnapshotPublish B/op = %v, want [4000]", got)
	}
}

func TestParseLineRejectsNonResults(t *testing.T) {
	for _, line := range []string{
		"goos: linux",
		"PASS",
		"Benchmark",
		"BenchmarkX-4 1000", // no ns/op
		"ok  lsasg 1.2s",
	} {
		if _, _, ok := parseLine(line); ok {
			t.Errorf("line %q parsed as a result", line)
		}
	}
	name, vals, ok := parseLine("BenchmarkE17_ServeParallel/p=4-4  9999  100 ns/op  0.25 applied/req")
	if !ok || name != "BenchmarkE17_ServeParallel/p=4" || vals["ns/op"] != 100 {
		t.Errorf("parsed (%q, %v, %v)", name, vals, ok)
	}
	name, vals, ok = parseLine("BenchmarkMem-8  100  200 ns/op  32 B/op  3 allocs/op")
	if !ok || name != "BenchmarkMem" || vals["B/op"] != 32 || vals["allocs/op"] != 3 {
		t.Errorf("mem line parsed (%q, %v, %v)", name, vals, ok)
	}
}

func TestCompareGate(t *testing.T) {
	oldRes := parseString(t, oldBench)
	newRes := parseString(t, newBench)
	re := regexp.MustCompile(`E10|E13|E16|E17|Gone`)

	verdicts, failed := compare(oldRes, newRes, re, nil, 0.25)
	joined := strings.Join(verdicts, "\n")

	// E10: min 1000 → min 1200 = +20%, inside the 25% gate.
	if !strings.Contains(joined, "OK    BenchmarkE10_RouteOnly") {
		t.Errorf("E10 should pass at +20%%:\n%s", joined)
	}
	// E16 improved; E13 +1.1%.
	if strings.Contains(joined, "FAIL  BenchmarkE16") || strings.Contains(joined, "FAIL  BenchmarkE13") {
		t.Errorf("improvement/noise flagged as regression:\n%s", joined)
	}
	// E17 is new: reported, not failed.
	if !strings.Contains(joined, "NEW   BenchmarkE17_ServeParallel/p=4") {
		t.Errorf("new benchmark not reported:\n%s", joined)
	}
	// Gone benchmark must fail the gate.
	if !strings.Contains(joined, "GONE  BenchmarkGone_Thing") || failed != 1 {
		t.Errorf("failed=%d, want 1 (disappeared benchmark):\n%s", failed, joined)
	}
	// E3 regressed 10× but is outside -match.
	if strings.Contains(joined, "E3_ServeUniform") {
		t.Errorf("unmatched benchmark leaked into the gate:\n%s", joined)
	}
	// Without -memmatch, no memory metric is gated anywhere.
	if strings.Contains(joined, "B/op") || strings.Contains(joined, "allocs/op") {
		t.Errorf("memory metrics gated without -memmatch:\n%s", joined)
	}

	// Tighten the threshold: E10's +20% now fails too.
	_, failed = compare(oldRes, newRes, re, nil, 0.10)
	if failed != 2 {
		t.Errorf("at 10%% threshold failed=%d, want 2", failed)
	}
}

func TestCompareMemGate(t *testing.T) {
	oldRes := parseString(t, oldBench)
	newRes := parseString(t, newBench)
	re := regexp.MustCompile(`E10`)
	memRe := regexp.MustCompile(`SnapshotPublish`)

	// SnapshotPublish: ns/op +1.4% OK, B/op 4000 → 9000 = +125% FAIL,
	// allocs/op 40 → 44 = +10% OK.
	verdicts, failed := compare(oldRes, newRes, re, memRe, 0.25)
	joined := strings.Join(verdicts, "\n")
	if !strings.Contains(joined, "FAIL  BenchmarkSnapshotPublish/n=1024") || !strings.Contains(joined, "B/op") {
		t.Errorf("B/op regression not flagged:\n%s", joined)
	}
	if failed != 1 {
		t.Errorf("failed=%d, want 1 (only B/op):\n%s", failed, joined)
	}
	// A -memmatch benchmark is gated even when it misses -match.
	if !strings.Contains(joined, "BenchmarkSnapshotPublish/n=1024") {
		t.Errorf("memmatch-only benchmark not gated:\n%s", joined)
	}

	// Zero-baseline allocs: 0 → 2 allocs/op must fail regardless of ratio.
	memRe = regexp.MustCompile(`ZeroAlloc`)
	verdicts, failed = compare(oldRes, newRes, re, memRe, 0.25)
	joined = strings.Join(verdicts, "\n")
	if failed != 2 { // B/op 0→64 and allocs/op 0→2
		t.Errorf("zero-baseline growth: failed=%d, want 2:\n%s", failed, joined)
	}
	if !strings.Contains(joined, "FAIL  BenchmarkZeroAlloc") {
		t.Errorf("zero-baseline regression not flagged:\n%s", joined)
	}
}

// TestCompareMemOnlyLane: a benchmark matching -memmatch but not -match is
// gated on B/op and allocs/op alone; its ns/op may swing any way.
func TestCompareMemOnlyLane(t *testing.T) {
	oldLoop := "BenchmarkLoopback/conns=1-4  2000  10000 ns/op  1800 B/op  6 allocs/op\n"
	slower := "BenchmarkLoopback/conns=1-4  2000  90000 ns/op  1800 B/op  6 allocs/op\n"
	re, memRe := regexp.MustCompile(`E10`), regexp.MustCompile(`Loopback`)
	verdicts, failed := compare(parseString(t, oldLoop), parseString(t, slower), re, memRe, 0.25)
	joined := strings.Join(verdicts, "\n")
	if failed != 0 || strings.Contains(joined, "ns/op") || !strings.Contains(joined, "allocs/op") {
		t.Errorf("mem-only lane: failed=%d, want 0 with only B/op and allocs/op gated:\n%s", failed, joined)
	}
	heavier := "BenchmarkLoopback/conns=1-4  2000  10000 ns/op  1800 B/op  9 allocs/op\n"
	if _, failed = compare(parseString(t, oldLoop), parseString(t, heavier), re, memRe, 0.25); failed != 1 {
		t.Errorf("mem-only lane: 6 → 9 allocs/op failed=%d, want 1", failed)
	}
}

func TestCompareMemGateMissingBaselineColumns(t *testing.T) {
	// Baseline ran without -benchmem: the memory metrics have no baseline
	// and must be reported, not failed. Losing them in the NEW run fails.
	oldNoMem := `BenchmarkSnapshotPublish/n=1024-4   100  7000 ns/op
PASS
`
	re := regexp.MustCompile(`^$`)
	memRe := regexp.MustCompile(`SnapshotPublish`)
	verdicts, failed := compare(parseString(t, oldNoMem), parseString(t, newBench), re, memRe, 0.25)
	joined := strings.Join(verdicts, "\n")
	if failed != 0 {
		t.Errorf("missing baseline columns: failed=%d, want 0:\n%s", failed, joined)
	}
	if !strings.Contains(joined, "NEW   BenchmarkSnapshotPublish/n=1024") {
		t.Errorf("metrics without baseline not reported as NEW:\n%s", joined)
	}

	_, failed = compare(parseString(t, newBench), parseString(t, oldNoMem), re, memRe, 0.25)
	if failed != 2 { // B/op and allocs/op both disappeared
		t.Errorf("dropped -benchmem columns: failed=%d, want 2", failed)
	}
}

func TestComparePair(t *testing.T) {
	run := `goos: linux
BenchmarkServeObsOverhead/obs=off-4   150000  3700 ns/op
BenchmarkServeObsOverhead/obs=off-4   140000  3650 ns/op
BenchmarkServeObsOverhead/obs=on-4    140000  3900 ns/op
BenchmarkServeObsOverhead/obs=on-4    130000  3790 ns/op
PASS
`
	res := parseString(t, run)
	base, cand := "BenchmarkServeObsOverhead/obs=off", "BenchmarkServeObsOverhead/obs=on"

	// mins: 3650 vs 3790 = +3.8%, inside a 5% gate and outside a 3% one.
	if v, ok := comparePair(res, base+","+cand, 0.05); !ok {
		t.Errorf("pair within threshold failed: %s", v)
	}
	if v, ok := comparePair(res, base+","+cand, 0.03); ok {
		t.Errorf("pair beyond threshold passed: %s", v)
	}
	// A missing lane fails rather than silently passing.
	if v, ok := comparePair(res, base+",BenchmarkNope", 0.05); ok {
		t.Errorf("missing candidate lane passed: %s", v)
	}
	if v, ok := comparePair(res, "BenchmarkNope,"+cand, 0.05); ok {
		t.Errorf("missing base lane passed: %s", v)
	}
}
