// Command dsgexp is the reproducible experiment runner: it executes a
// configurable grid over the registered paper experiments (E1–E20) and
// writes machine-readable results — one CSV and one JSON per experiment
// plus a BENCH_dsgexp.json summary — to a timestamped output directory.
// Two runs with the same flags and seed produce byte-identical CSVs, so
// result files can be diffed across commits to track the performance
// trajectory of the implementation. (The exemptions: the requests/sec
// columns of E18 and E19 and E20's events/sec column are wall-clock
// measurements; every other column is byte-stable.) With -format table it
// renders the same experiments as human-readable text instead — to stdout,
// or to the -out file — with timing on stderr, so the captured tables are
// byte-stable per seed in the same columns.
//
// Usage:
//
//	dsgexp -quick -seed 1            # all experiments, reduced scale
//	dsgexp -repeats 5                # full scale (the default), 5 repeats aggregated as mean/sd
//	dsgexp -only E5,E8 -out results  # two experiments into ./results
//	dsgexp -only E18 -shards 1,4,16  # sweep shard counts for the sharded study
//	dsgexp -only E19 -mix a,e,crud   # sweep KV operation mixes for the KV study
//	dsgexp -format table -quick -only E8  # print E8's table
//	dsgexp -list                     # list registered experiments and exit
//
// Experiments run in parallel (bounded by -par); each (experiment, repeat)
// cell derives its own seed from -seed, so parallelism never changes the
// results. The optional -bench-append flag extends a committed
// perf-trajectory file (a JSON array of summaries, oldest first) so
// performance re-anchors read from data instead of commit messages.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"lsasg/internal/experiments"
)

func main() {
	var (
		quick   = flag.Bool("quick", false, "run at reduced scale (seconds per experiment)")
		repeats = flag.Int("repeats", 1, "independent repetitions per experiment, aggregated as mean/sd")
		only    = flag.String("only", "", "comma-separated experiment ids to run (e.g. E5,E8); empty = all")
		par     = flag.Int("par", 0, "max experiments running concurrently (0 = GOMAXPROCS)")
		benchAp = flag.String("bench-append", "", "append the summary to the perf-trajectory file at this path (a JSON array, oldest first)")
		list    = flag.Bool("list", false, "list registered experiments and exit")
		format  = flag.String("format", "csv", "csv: result files into the -out directory; table: human-readable tables to stdout or the -out file")
		seed    = flag.Int64("seed", 1, "base random seed; identical seeds reproduce identical results")
		out     = flag.String("out", "", "output directory (default dsgexp_runs/<timestamp>); with -format table, the report file (default stdout)")
		shards  = flag.String("shards", "", "comma-separated shard counts for sharded experiments (e.g. 1,2,4,8); empty = scale default")
		mix     = flag.String("mix", "", "comma-separated KV mixes for KV experiments (named: a,b,c,e,crud; or read:update:insert:scan:delete weights); empty = scale default")
	)
	flag.Parse()

	if *list {
		experiments.FprintRegistry(os.Stdout)
		return
	}
	sc := experiments.Full()
	scaleName := "full"
	if *quick {
		sc = experiments.Quick()
		scaleName = "quick"
	}
	sc.Seed = *seed
	if sweep, err := parseShards(*shards); err != nil {
		fail("%v", err)
	} else if sweep != nil {
		sc.Shards = sweep
	}
	if mixes, err := parseMixes(*mix); err != nil {
		fail("%v", err)
	} else if mixes != nil {
		sc.Mixes = mixes
	}

	selected, err := experiments.Select(*only)
	if err != nil {
		fail("%v", err)
	}
	run := experiments.RunConfig{Scale: sc, Repeats: *repeats}
	switch *format {
	case "csv":
	case "table":
		renderTables(selected, run, *out)
		return
	default:
		fail("-format %q is neither csv nor table", *format)
	}

	outDir := *out
	if outDir == "" {
		outDir = defaultRunDir()
	}

	fmt.Printf("dsgexp: %d experiment(s), scale=%s, seed=%d, repeats=%d → %s\n",
		len(selected), scaleName, *seed, *repeats, outDir)
	summary, err := experiments.RunGrid(experiments.GridConfig{
		RunConfig:   run,
		Experiments: selected,
		OutDir:      outDir,
		ScaleName:   scaleName,
		Parallelism: *par,
		Progress: func(format string, args ...interface{}) {
			fmt.Printf(format+"\n", args...)
		},
	})
	if err != nil {
		fail("%v", err)
	}
	fmt.Printf("dsgexp: wrote %s in %.1fs\n",
		filepath.Join(outDir, experiments.SummaryFileName), summary.TotalSeconds)

	if *benchAp != "" {
		if err := experiments.AppendTrajectory(*benchAp, summary); err != nil {
			fail("%v", err)
		}
		fmt.Printf("dsgexp: summary appended to trajectory %s\n", *benchAp)
	}
	if summary.Failed > 0 {
		fail("%d experiment(s) failed", summary.Failed)
	}
}

// renderTables runs the experiments one after another and writes each
// table as aligned text to the file at path, or to stdout when it is empty.
func renderTables(selected []experiments.Experiment, run experiments.RunConfig, path string) {
	w, err := output(path)
	if err != nil {
		fail("%v", err)
	}
	for _, e := range selected {
		res, err := experiments.Run(e, run)
		if err != nil {
			fail("%v", err)
		}
		res.Table.Render(w)
		fmt.Fprintf(w, "(%s [%s])\n\n", e.ID, e.PaperRef)
		fmt.Fprintf(os.Stderr, "dsgexp: %s in %.1fs\n", e.ID, res.Elapsed.Seconds())
	}
	if err := w.Close(); err != nil {
		fail("closing %s: %v", path, err)
	}
	if path != "" {
		fmt.Fprintf(os.Stderr, "dsgexp: report at %s\n", path)
	}
}

// fail prints a prefixed error to stderr and exits non-zero.
func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "dsgexp: "+format+"\n", args...)
	os.Exit(1)
}
