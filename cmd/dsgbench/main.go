// Command dsgbench renders the experiment tables as human-readable text:
// empirical validations of every lemma/theorem in the paper plus the
// comparison studies against the static skip graph and SplayNet. It is the
// interactive twin of cmd/dsgexp, which runs the same registry but writes
// machine-readable CSV/JSON result files.
//
// Like every binary in this repo, -seed fixes the deterministic stream and
// -out captures the report (a file here; stdout when empty). Timing goes to
// stderr, so two runs with the same -seed produce byte-identical captured
// output — except the wall-clock columns of E17 (requests/sec, lag), E18
// and E19 (requests/sec), and E20 (events/sec), which measure real elapsed
// time by design.
//
// Usage:
//
//	dsgbench                      # run every experiment at full scale
//	dsgbench -run E1,E8           # run selected experiments
//	dsgbench -quick -out rep.txt  # smaller sizes, report into rep.txt
//	dsgbench -seed 7              # change the random seed
//	dsgbench -run E18 -shards 2,8 # sweep shard counts for the sharded study
//	dsgbench -run E19 -mix a,crud # sweep KV operation mixes for the KV study
//	dsgbench -list                # list registered experiments and exit
package main

import (
	"flag"
	"fmt"
	"os"

	"lsasg/internal/cliutil"
	"lsasg/internal/experiments"
)

func main() {
	var (
		run    = flag.String("run", "", "comma-separated experiment ids (e.g. E1,E8); empty = all")
		quick  = flag.Bool("quick", false, "run at reduced scale")
		list   = flag.Bool("list", false, "list registered experiments and exit")
		seed   = cliutil.AddSeed(flag.CommandLine)
		out    = cliutil.AddOut(flag.CommandLine, "write the rendered tables to this file (default stdout)")
		shards = cliutil.AddShards(flag.CommandLine)
		mix    = cliutil.AddMix(flag.CommandLine)
	)
	flag.Parse()

	if *list {
		experiments.FprintRegistry(os.Stdout)
		return
	}

	sc := experiments.Full()
	if *quick {
		sc = experiments.Quick()
	}
	sc.Seed = *seed
	if sweep, err := cliutil.ParseShards(*shards); err != nil {
		cliutil.Fail("dsgbench", "%v", err)
	} else if sweep != nil {
		sc.Shards = sweep
	}
	if mixes, err := cliutil.ParseMixes(*mix); err != nil {
		cliutil.Fail("dsgbench", "%v", err)
	} else if mixes != nil {
		sc.Mixes = mixes
	}

	selected, err := experiments.Select(*run)
	if err != nil {
		cliutil.Fail("dsgbench", "%v", err)
	}
	w, err := cliutil.Output(*out)
	if err != nil {
		cliutil.Fail("dsgbench", "%v", err)
	}
	for _, e := range selected {
		res, err := experiments.Run(e, experiments.RunConfig{Scale: sc})
		if err != nil {
			cliutil.Fail("dsgbench", "%v", err)
		}
		res.Table.Render(w)
		fmt.Fprintf(w, "(%s [%s])\n\n", e.ID, e.PaperRef)
		fmt.Fprintf(os.Stderr, "dsgbench: %s in %.1fs\n", e.ID, res.Elapsed.Seconds())
	}
	if err := w.Close(); err != nil {
		cliutil.Fail("dsgbench", "closing %s: %v", *out, err)
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "dsgbench: report at %s\n", *out)
	}
}
