// Command benchmark measures what a client of dsgserve observes, end to end
// and layer by layer. It spawns a fresh child daemon per pass, generates the
// op stream in-process from internal/workload, drives the daemon closed-loop
// through wire.Client, checks every reply against an oracle, and prints every
// metric by name and unit. A separate traced run re-executes a prefix of the
// same ops on every rung of the serving path — core, skipgraph, serve/shard,
// lsasg, wire — timing each layer's public entry points from outside, so the
// budget under the client's latency adds up. See README.md.
//
// Usage (from the repository root):
//
//	bash benchmark/run.sh                                   # every workload, both runs
//	bash benchmark/run.sh --workload scan-n256-c2 --seed 7 --seconds 18 --trace 0
//	bash benchmark/run.sh --quick                           # smoke test, under 20 s
//
// With --workload the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"} holding the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"
)

func main() {
	var cfg config
	flag.StringVar(&cfg.only, "workload", "", "run this workload alone and end with the one-line JSON result; empty runs them all")
	flag.StringVar(&cfg.only, "only", "", "the same as -workload")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&cfg.seconds, "seconds", 18, "length of the timed phase of an end-to-end run")
	flag.IntVar(&cfg.trace, "trace", -1, "0: end-to-end run, 1: traced per-layer run, -1: one after the other")
	flag.IntVar(&cfg.passes, "passes", 3, "fixed-count set-up passes per end-to-end run (BENCHMARK.json pins 3)")
	flag.BoolVar(&cfg.quick, "quick", false, "smoke-test sizes: n=64, 100 fixed ops, 1 pass, 1 s timed, traced prefix 50")
	jsonOut := flag.String("json", "", "also write every result, machine-readable, to this file")
	flag.Parse()
	if flag.NArg() > 0 || cfg.passes < 1 || cfg.seconds <= 0 || cfg.trace < -1 || cfg.trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	results, err := runAll(cfg, report)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	code := 0
	for _, r := range results {
		if !r.correct() {
			code = 1
		}
	}
	if *jsonOut != "" {
		all := make([]resultJSON, len(results))
		for i, r := range results {
			all[i] = r.json()
		}
		b, err := json.MarshalIndent(all, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			code = 1
		}
	}
	if cfg.only != "" && len(results) == 1 {
		// The driver's contract: the last line is one object with exactly the
		// keys correct, attempted, failed and metrics.
		last := results[0].json()
		last.Workload, last.Run = "", ""
		b, err := json.Marshal(last)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		fmt.Println(string(b))
	}
	os.Exit(code)
}

// config is the command line.
type config struct {
	only    string
	seed    int64
	seconds float64
	trace   int
	passes  int
	quick   bool
}

// runAll builds the daemon, runs every selected workload, and hands each
// result to done as it completes.
func runAll(cfg config, done func(result)) ([]result, error) {
	todo := workloads
	if cfg.only != "" {
		w, ok := findWorkload(cfg.only)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", cfg.only)
		}
		todo = []workload{w}
	}
	if cfg.quick {
		cfg.passes = 1
		cfg.seconds = min(cfg.seconds, 1)
	}

	bin, cleanup, err := buildDaemon()
	if err != nil {
		return nil, err
	}
	h := &harness{daemonBin: bin, outDir: "out", passTimeout: time.Duration(cfg.seconds+150) * time.Second}
	// Children die and the build dir goes on every way out: normal return,
	// a panic (the deferred calls run before the crash), and Ctrl-C.
	defer cleanup()
	defer h.kids.killAll()
	sig, finished := make(chan os.Signal, 1), make(chan struct{})
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	defer close(finished)
	defer signal.Stop(sig)
	go func() {
		select {
		case <-sig:
			h.kids.killAll()
			cleanup()
			os.Exit(130)
		case <-finished:
		}
	}()

	var results []result
	for _, w := range todo {
		if cfg.quick {
			w = w.quick()
		}
		if cfg.trace != 1 {
			results = append(results, h.runE2E(w, cfg.seed, cfg.seconds, cfg.passes))
			done(results[len(results)-1])
		}
		if cfg.trace != 0 {
			results = append(results, h.runTraced(w, cfg.seed))
			done(results[len(results)-1])
		}
	}
	return results, nil
}

// report prints one run for people: every metric by name and unit, then the
// run-health notes and anything that makes the run incorrect.
func report(r result) {
	kind := "end-to-end"
	if r.traced {
		kind = "per-layer (traced)"
	}
	verdict := "correct"
	if !r.correct() {
		verdict = "INCORRECT"
	}
	fmt.Printf("== %s · %s · %d ops attempted, %d failed · %s\n", r.workload, kind, r.attempted, r.failed, verdict)
	for _, m := range r.metrics {
		fmt.Printf("  %-34s %16.6g %s\n", m.name, m.value, m.unit)
	}
	for _, n := range r.notes {
		fmt.Printf("  note: %s\n", n)
	}
	for _, p := range r.problems {
		fmt.Printf("  PROBLEM: %s\n", p)
	}
}

// resultJSON is the machine-readable shape of a run; without the two labels
// it is exactly the object the driver reads from the last line.
type resultJSON struct {
	Workload  string                `json:"workload,omitempty"`
	Run       string                `json:"run,omitempty"`
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r result) json() resultJSON {
	out := resultJSON{
		Workload: r.workload, Run: "end_to_end",
		Correct: r.correct(), Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricJSON, len(r.metrics)),
	}
	if r.traced {
		out.Run = "per_layer"
	}
	for _, m := range r.metrics {
		out.Metrics[m.name] = metricJSON{m.value, m.unit}
	}
	return out
}
