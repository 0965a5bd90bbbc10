package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// The -e2e mode is the local pre-flight of the gate a PR is judged by: it
// reads two `benchmark/run.sh --json` files (the parent commit's and the
// change's) and the manifest BENCHMARK.json, and reports every (workload,
// end-to-end metric) pair as better, inside its bound, or worse than the
// parent by more than the bound the manifest fixes for that metric. One
// pair of runs says nothing about spread — the claim of a gain still needs
// its ten interleaved pairs — but a deterministic paper-cost counter outside
// its 2 % bound shows here on the first run.

// manifest is the part of BENCHMARK.json the gate needs.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []e2eMetric `json:"end_to_end"`
}

type e2eMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // tolerated worsening, as a fraction of the parent's value
}

// e2eRun is one entry of a `benchmark/run.sh --json` file.
type e2eRun struct {
	Workload  string `json:"workload"`
	Run       string `json:"run"` // "end_to_end" or "per_layer"
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func readJSON(path string, into any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, into); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	return nil
}

// readE2E returns a file's end-to-end runs by workload.
func readE2E(path string) (map[string]e2eRun, error) {
	var runs []e2eRun
	if err := readJSON(path, &runs); err != nil {
		return nil, err
	}
	out := make(map[string]e2eRun, len(runs))
	for _, r := range runs {
		if r.Run == "end_to_end" {
			out[r.Workload] = r
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no end_to_end run in %s", path)
	}
	return out, nil
}

// worsening returns by what fraction of the parent's value the change is
// worse (negative: better), whichever direction the metric improves in.
func worsening(m e2eMetric, parent, change float64) float64 {
	switch {
	case parent == change:
		return 0
	case parent == 0:
		// No ratio to a zero parent: any move is unbounded.
		if (change > 0) == (m.Better == "lower") {
			return math.Inf(1)
		}
		return math.Inf(-1)
	case m.Better == "higher":
		return 1 - change/parent
	default:
		return change/parent - 1
	}
}

// compareE2E produces one verdict line per (workload, end-to-end metric) of
// the manifest, plus one per workload for the share of failed operations,
// and the number of lines that fail the gate: a metric worse than the
// parent's by more than its bound, a larger failed share, or a workload or
// metric the parent reported and the change does not.
func compareE2E(m manifest, parent, change map[string]e2eRun) (verdicts []string, failed int) {
	for _, w := range m.Workloads {
		p, inParent := parent[w.Name]
		c, inChange := change[w.Name]
		switch {
		case !inParent && !inChange:
			continue // a run of some workloads only
		case !inParent:
			verdicts = append(verdicts, fmt.Sprintf("NEW    %-18s (no parent run)", w.Name))
			continue
		case !inChange:
			verdicts = append(verdicts, fmt.Sprintf("GONE   %-18s workload missing from the change's run", w.Name))
			failed++
			continue
		}
		for _, em := range m.EndToEnd {
			pv, okP := p.Metrics[em.Name]
			cv, okC := c.Metrics[em.Name]
			switch {
			case !okP:
				continue
			case !okC:
				verdicts = append(verdicts, fmt.Sprintf("GONE   %-18s %-24s missing from the change's run", w.Name, em.Name))
				failed++
				continue
			}
			worse := worsening(em, pv.Value, cv.Value)
			verdict := "inside"
			switch {
			case worse > em.Bound:
				verdict = "WORSE "
				failed++
			case worse < -em.Bound:
				verdict = "better"
			}
			delta := 0.0
			if pv.Value != 0 {
				delta = (cv.Value/pv.Value - 1) * 100
			}
			verdicts = append(verdicts, fmt.Sprintf("%s %-18s %-24s %12.6g → %12.6g %-6s %+7.2f%%  (%s is better, bound %g%%)",
				verdict, w.Name, em.Name, pv.Value, cv.Value, em.Unit, delta, em.Better, em.Bound*100))
		}
		// Shares compared by cross-multiplication: attempted counts differ.
		if c.Failed*p.Attempted > p.Failed*c.Attempted {
			verdicts = append(verdicts, fmt.Sprintf("WORSE  %-18s %-24s %d of %d → %d of %d operations",
				w.Name, "failed", p.Failed, p.Attempted, c.Failed, c.Attempted))
			failed++
		}
	}
	return verdicts, failed
}

// runE2E is the -e2e entry point; it returns the number of gate failures.
func runE2E(parentPath, changePath, manifestPath string) (int, error) {
	var m manifest
	if err := readJSON(manifestPath, &m); err != nil {
		return 0, err
	}
	if len(m.Workloads) == 0 || len(m.EndToEnd) == 0 {
		return 0, fmt.Errorf("%s names no workloads or no end_to_end metrics", manifestPath)
	}
	parent, err := readE2E(parentPath)
	if err != nil {
		return 0, err
	}
	change, err := readE2E(changePath)
	if err != nil {
		return 0, err
	}
	verdicts, failed := compareE2E(m, parent, change)
	for _, v := range verdicts {
		fmt.Println(v)
	}
	return failed, nil
}
