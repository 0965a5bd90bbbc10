package main

// The flag conventions that make both of dsgexp's output formats
// reproducible the same way: -seed selects the deterministic random stream
// (default 1; two runs with the same flags and seed produce the same captured
// output); -out captures the result — a directory for the grid's result
// files, a file for the rendered tables (empty means stdout); timing and
// progress chatter goes to stderr, never into the captured output, so -out
// files can be diffed across commits.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"lsasg/internal/workload"
)

// splitList splits a comma-separated flag value into its trimmed, non-empty
// entries. An empty value yields nil, nil (meaning: keep the scale's default
// sweep, so a grid run is as reproducible with the flag as without); a value
// of separators only is an error.
func splitList(flagName, v string) ([]string, error) {
	if strings.TrimSpace(v) == "" {
		return nil, nil
	}
	var out []string
	for _, part := range strings.Split(v, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty %s list %q", flagName, v)
	}
	return out, nil
}

// parseShards parses the -shards value into shard counts; entries must be
// positive integers.
func parseShards(v string) ([]int, error) {
	parts, err := splitList("-shards", v)
	if parts == nil {
		return nil, err
	}
	out := make([]int, len(parts))
	for i, part := range parts {
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad shard count %q (want positive integers, e.g. 1,2,4,8)", part)
		}
		out[i] = n
	}
	return out, nil
}

// parseMixes parses the -mix value into mix names, validating each against
// workload.ParseMix.
func parseMixes(v string) ([]string, error) {
	parts, err := splitList("-mix", v)
	for _, part := range parts {
		if _, err := workload.ParseMix(part); err != nil {
			return nil, fmt.Errorf("bad -mix entry %q: %w", part, err)
		}
	}
	return parts, err
}

// nopWriteCloser wraps stdout so text reporters can Close unconditionally.
type nopWriteCloser struct{ io.Writer }

func (nopWriteCloser) Close() error { return nil }

// output resolves the -out flag for the table format: an empty path yields
// a non-closing stdout wrapper, anything else creates the file (and its
// parent directories).
func output(path string) (io.WriteCloser, error) {
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

// defaultRunDir returns the grid's default output directory:
// dsgexp_runs/<timestamp>.
func defaultRunDir() string {
	return filepath.Join("dsgexp_runs", time.Now().Format("20060102_150405"))
}
