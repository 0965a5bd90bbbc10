// Package cliutil centralizes the flag conventions of the repo's reporting
// binary (cmd/dsgexp), so both of its output formats are reproducible the
// same way:
//
//   - -seed selects the deterministic random stream (default 1; two runs
//     with the same flags and seed produce the same captured output);
//   - -out captures the result — a directory for the grid's result files,
//     a file for the rendered tables (-format table; empty means stdout);
//   - timing and progress chatter belongs on stderr, never in the captured
//     output, so -out files can be diffed across commits.
package cliutil

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"lsasg/internal/workload"
)

// AddSeed registers the shared -seed flag.
func AddSeed(fs *flag.FlagSet) *int64 {
	return fs.Int64("seed", 1, "base random seed; identical seeds reproduce identical results")
}

// AddOut registers the shared -out flag with a tool-specific usage string.
func AddOut(fs *flag.FlagSet, usage string) *string {
	return fs.String("out", "", usage)
}

// AddShards registers the shared -shards flag: a comma-separated list of
// shard counts for the partitioned-serving experiments (E18). An empty value
// keeps the scale's default sweep, so grid runs have the same -seed/-out
// reproducibility whether or not shards are overridden.
func AddShards(fs *flag.FlagSet) *string {
	return fs.String("shards", "", "comma-separated shard counts for sharded experiments (e.g. 1,2,4,8); empty = scale default")
}

// ParseShards parses an AddShards value into shard counts. Empty input
// yields nil (meaning: keep the default sweep); entries must be positive
// integers.
func ParseShards(v string) ([]int, error) {
	v = strings.TrimSpace(v)
	if v == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(v, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("cliutil: bad shard count %q (want positive integers, e.g. 1,2,4,8)", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cliutil: empty -shards list %q", v)
	}
	return out, nil
}

// AddMix registers the shared -mix flag: a comma-separated list of KV
// operation mixes for the KV-workload experiments (E19). An empty value
// keeps the scale's default sweep, mirroring -shards.
func AddMix(fs *flag.FlagSet) *string {
	return fs.String("mix", "", "comma-separated KV mixes for KV experiments (named: a,b,c,e,crud; or read:update:insert:scan:delete weights); empty = scale default")
}

// ParseMixes parses an AddMix value into mix names, validating each against
// workload.ParseMix. Empty input yields nil (meaning: keep the default
// sweep).
func ParseMixes(v string) ([]string, error) {
	v = strings.TrimSpace(v)
	if v == "" {
		return nil, nil
	}
	var out []string
	for _, part := range strings.Split(v, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if _, err := workload.ParseMix(part); err != nil {
			return nil, fmt.Errorf("cliutil: bad -mix entry %q: %w", part, err)
		}
		out = append(out, part)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cliutil: empty -mix list %q", v)
	}
	return out, nil
}

// nopWriteCloser wraps stdout so text reporters can Close unconditionally.
type nopWriteCloser struct{ io.Writer }

func (nopWriteCloser) Close() error { return nil }

// Output resolves the -out flag for text reporters: an empty path yields a
// non-closing stdout wrapper, anything else creates the file (and its parent
// directories).
func Output(path string) (io.WriteCloser, error) {
	if path == "" {
		return nopWriteCloser{os.Stdout}, nil
	}
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("creating output directory: %w", err)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("creating output file: %w", err)
	}
	return f, nil
}

// DefaultRunDir returns the conventional default output directory for grid
// runners: <tool>_runs/<timestamp>.
func DefaultRunDir(tool string) string {
	return filepath.Join(tool+"_runs", time.Now().Format("20060102_150405"))
}

// Fail prints a prefixed error to stderr and exits non-zero. Every binary
// reports fatal errors the same way.
func Fail(tool, format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, tool+": "+format+"\n", args...)
	os.Exit(1)
}
