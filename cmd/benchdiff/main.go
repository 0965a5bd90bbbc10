// Command benchdiff is the CI perf-regression gate: it parses two `go test
// -bench` output files (typically the PR head and its merge-base, each run
// with -count N), aggregates each benchmark's metrics as the minimum across
// counts (the least-noisy point estimate on a shared runner), and fails when
// any benchmark matching -match regressed its ns/op by more than -threshold.
// Benchmarks additionally matching -memmatch also gate their B/op and
// allocs/op (requires -benchmem on both runs) — allocation-shaped wins, like
// the adjuster's scratch arena, regress silently under a pure ns/op gate on
// a noisy runner.
//
// Benchmarks present only in the new file are reported as new and never
// fail the gate (a PR may introduce the benchmark it is gated on);
// benchmarks that disappeared from the new file DO fail it, so a regression
// cannot hide behind a rename. The same applies per metric: a mem-gated
// benchmark whose baseline lacks B/op (no -benchmem) is reported, not
// failed, but one that LOST its memory columns fails. benchstat remains the
// human-readable companion — benchdiff only decides pass/fail.
//
// Usage:
//
//	benchdiff -old base.txt -new head.txt -match 'E10|E13|E16|E17' \
//	  -memmatch 'E7|E19' -threshold 0.25
//
// A second, baseline-free mode gates two lanes of one run against each
// other: -pair 'BASE,CANDIDATE' compares the candidate's ns/op (minimum
// across counts) against the base lane within the -new file alone, failing
// beyond -pairthreshold. Both lanes come from the same binary and the same
// invocation, so the usual cross-run noise floor does not apply and the
// threshold can be far tighter — the obs-overhead gate runs at 5%. -old is
// optional when -pair is given; with both, the cross-run gate runs too.
//
// A third mode compares two runs of the declared benchmark instead of two
// `go test -bench` outputs (see e2e.go):
//
//	benchdiff -e2e parent.json change.json -manifest BENCHMARK.json
//
// reads two `bash benchmark/run.sh --json <file>` results and fails when any
// end-to-end metric of any workload is worse than the parent's by more than
// the bound BENCHMARK.json fixes for it.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

func main() {
	var (
		oldPath       = flag.String("old", "", "baseline `go test -bench` output (merge-base)")
		newPath       = flag.String("new", "", "candidate `go test -bench` output (PR head)")
		match         = flag.String("match", "", "regexp selecting the gated benchmarks (empty = all)")
		memMatch      = flag.String("memmatch", "", "regexp selecting benchmarks whose B/op and allocs/op are also gated (empty = none)")
		threshold     = flag.Float64("threshold", 0.25, "maximum tolerated regression per gated metric (0.25 = +25%)")
		pair          = flag.String("pair", "", "'BASE,CANDIDATE': gate candidate ns/op against base within the -new file alone")
		pairThreshold = flag.Float64("pairthreshold", 0.05, "maximum tolerated ns/op overhead of the -pair candidate over its base (0.05 = +5%)")
		e2e           = flag.Bool("e2e", false, "compare two `benchmark/run.sh --json` files, given as the two arguments (parent, change), against the bounds of -manifest")
		manifestPath  = flag.String("manifest", "BENCHMARK.json", "benchmark manifest holding the -e2e bounds")
	)
	flag.Parse()
	if *e2e {
		args := flag.Args()
		if len(args) > 2 {
			// Flags may follow the two files.
			flag.CommandLine.Parse(args[2:])
			args = append(args[:2:2], flag.Args()...)
		}
		if len(args) != 2 {
			fail("-e2e wants two files: parent.json change.json")
		}
		failed, err := runE2E(args[0], args[1], *manifestPath)
		if err != nil {
			fail("%v", err)
		}
		if failed > 0 {
			fail("%d end-to-end metric(s) worse than the parent by more than their bound", failed)
		}
		fmt.Println("benchdiff: no end-to-end metric worse than the parent by more than its bound")
		return
	}
	if *newPath == "" {
		fail("-new is required")
	}
	if *oldPath == "" && *pair == "" {
		fail("-old is required unless -pair is given")
	}
	re, err := regexp.Compile(*match)
	if err != nil {
		fail("bad -match regexp: %v", err)
	}
	var memRe *regexp.Regexp
	if *memMatch != "" {
		if memRe, err = regexp.Compile(*memMatch); err != nil {
			fail("bad -memmatch regexp: %v", err)
		}
	}
	newRes, err := parseFile(*newPath)
	if err != nil {
		fail("%v", err)
	}

	failed := 0
	if *oldPath != "" {
		oldRes, err := parseFile(*oldPath)
		if err != nil {
			fail("%v", err)
		}
		verdicts, n := compare(oldRes, newRes, re, memRe, *threshold)
		for _, v := range verdicts {
			fmt.Println(v)
		}
		failed += n
	}
	if *pair != "" {
		verdict, ok := comparePair(newRes, *pair, *pairThreshold)
		fmt.Println(verdict)
		if !ok {
			failed++
		}
	}
	if failed > 0 {
		fail("%d gated metric(s) regressed beyond their threshold", failed)
	}
	fmt.Println("benchdiff: no gated benchmark regressed beyond its threshold")
}

// comparePair gates one lane against another inside a single run: both
// minimums come from the -new file, so there is no cross-run noise floor.
func comparePair(res samples, pair string, threshold float64) (string, bool) {
	parts := strings.SplitN(pair, ",", 2)
	if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
		fail("bad -pair %q: want 'BASE,CANDIDATE'", pair)
	}
	base, cand := parts[0], parts[1]
	baseVs, okB := res[base]["ns/op"]
	candVs, okC := res[cand]["ns/op"]
	switch {
	case !okB && !okC:
		return fmt.Sprintf("GONE  pair lanes %s and %s missing from the run", base, cand), false
	case !okB:
		return fmt.Sprintf("GONE  pair base lane %s missing from the run", base), false
	case !okC:
		return fmt.Sprintf("GONE  pair candidate lane %s missing from the run", cand), false
	}
	b, c := minOf(baseVs), minOf(candVs)
	if b == 0 {
		return fmt.Sprintf("FAIL  pair base lane %s reported 0 ns/op", base), false
	}
	delta := c/b - 1
	status, ok := "OK   ", true
	if delta > threshold {
		status, ok = "FAIL ", false
	}
	return fmt.Sprintf("%s %-50s %12.1f → %12.1f ns/op  %+6.1f%% (pair, limit %+.0f%%)",
		status, cand+" vs "+base, b, c, delta*100, threshold*100), ok
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "benchdiff: "+format+"\n", args...)
	os.Exit(1)
}

// gatedUnits are the metrics benchdiff understands, in report order. ns/op
// is gated for every -match benchmark; the memory pair only for -memmatch.
var gatedUnits = []string{"ns/op", "B/op", "allocs/op"}

// procsSuffix matches the trailing "-<GOMAXPROCS>" go test appends to
// benchmark names (absent when GOMAXPROCS is 1), stripped so runs from
// machines reporting different suffixes still line up.
var procsSuffix = regexp.MustCompile(`-\d+$`)

// parseLine extracts the benchmark name and every recognized metric from one
// result line, e.g.
//
//	BenchmarkE10_RouteOnly-4   123456   9876 ns/op   120 B/op  3 allocs/op
//
// ok reports whether the line was a benchmark result carrying ns/op (lines
// without ns/op are not results, whatever custom units they carry).
func parseLine(line string) (name string, vals map[string]float64, ok bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return "", nil, false
	}
	f := strings.Fields(line)
	if len(f) < 4 {
		return "", nil, false
	}
	for i := 3; i < len(f); i++ {
		switch f[i] {
		case "ns/op", "B/op", "allocs/op":
			v, err := strconv.ParseFloat(f[i-1], 64)
			if err != nil {
				continue
			}
			if vals == nil {
				vals = make(map[string]float64, len(gatedUnits))
			}
			vals[f[i]] = v
		}
	}
	if _, hasNs := vals["ns/op"]; !hasNs {
		return "", nil, false
	}
	return procsSuffix.ReplaceAllString(f[0], ""), vals, true
}

// samples holds every benchmark's per-metric values (one per -count).
type samples map[string]map[string][]float64

func parse(r io.Reader) (samples, error) {
	out := make(samples)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		name, vals, ok := parseLine(sc.Text())
		if !ok {
			continue
		}
		m := out[name]
		if m == nil {
			m = make(map[string][]float64, len(gatedUnits))
			out[name] = m
		}
		for unit, v := range vals {
			m[unit] = append(m[unit], v)
		}
	}
	return out, sc.Err()
}

func parseFile(path string) (samples, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	res, err := parse(f)
	if err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(res) == 0 {
		return nil, fmt.Errorf("no benchmark results in %s", path)
	}
	return res, nil
}

func minOf(vs []float64) float64 {
	m := vs[0]
	for _, v := range vs[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// compare produces verdict lines for every gated benchmark/metric and the
// number of failures: regressions beyond the threshold, gated benchmarks
// missing from the new run, and mem-gated metrics that disappeared.
func compare(oldRes, newRes samples, re, memRe *regexp.Regexp, threshold float64) (verdicts []string, failed int) {
	names := make(map[string]bool, len(oldRes)+len(newRes))
	for n := range oldRes {
		names[n] = true
	}
	for n := range newRes {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		if re.MatchString(n) || (memRe != nil && memRe.MatchString(n)) {
			sorted = append(sorted, n)
		}
	}
	sort.Strings(sorted)
	for _, n := range sorted {
		oldUnits, inOld := oldRes[n]
		newUnits, inNew := newRes[n]
		switch {
		case !inOld:
			verdicts = append(verdicts, fmt.Sprintf("NEW   %-50s %12.1f ns/op (no baseline)", n, minOf(newUnits["ns/op"])))
			continue
		case !inNew:
			verdicts = append(verdicts, fmt.Sprintf("GONE  %-50s benchmark disappeared from the new run", n))
			failed++
			continue
		}
		units := []string{"ns/op"}
		if memRe != nil && memRe.MatchString(n) {
			units = gatedUnits
		}
		for _, unit := range units {
			oldVs, uOld := oldUnits[unit]
			newVs, uNew := newUnits[unit]
			switch {
			case !uOld && !uNew:
				continue // neither run reported it (e.g. no -benchmem anywhere)
			case !uOld:
				verdicts = append(verdicts, fmt.Sprintf("NEW   %-50s %12.1f %s (no baseline)", n, minOf(newVs), unit))
				continue
			case !uNew:
				verdicts = append(verdicts, fmt.Sprintf("GONE  %-50s %s disappeared from the new run", n, unit))
				failed++
				continue
			}
			o, nw := minOf(oldVs), minOf(newVs)
			status, delta := "OK   ", 0.0
			switch {
			case o == 0:
				// A zero baseline (common for allocs/op) has no meaningful
				// ratio: any growth is an unbounded regression.
				if nw > 0 {
					status = "FAIL "
					failed++
				}
			default:
				delta = nw/o - 1
				if delta > threshold {
					status = "FAIL "
					failed++
				}
			}
			verdicts = append(verdicts, fmt.Sprintf("%s %-50s %12.1f → %12.1f %s  %+6.1f%%",
				status, n, o, nw, unit, delta*100))
		}
	}
	return verdicts, failed
}
