package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseShards(t *testing.T) {
	got, err := parseShards("1, 2,4,8")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got[0] != 1 || got[3] != 8 {
		t.Fatalf("ParseShards = %v, want [1 2 4 8]", got)
	}

	if got, err := parseShards(""); err != nil || got != nil {
		t.Errorf("empty -shards must mean the default sweep, got %v, %v", got, err)
	}
	for _, bad := range []string{"0", "-1", "two", "1,,x", ","} {
		if _, err := parseShards(bad); err == nil {
			t.Errorf("parseShards(%q) must fail", bad)
		}
	}
}

func TestParseMixes(t *testing.T) {
	got, err := parseMixes("a, crud,50:30:10:5:5")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != "a" || got[1] != "crud" || got[2] != "50:30:10:5:5" {
		t.Fatalf("ParseMixes = %v", got)
	}

	if got, err := parseMixes(""); err != nil || got != nil {
		t.Errorf("empty -mix must mean the default sweep, got %v, %v", got, err)
	}
	for _, bad := range []string{"z", "a,bogus", "1:2:3", ","} {
		if _, err := parseMixes(bad); err == nil {
			t.Errorf("parseMixes(%q) must fail", bad)
		}
	}
}

func TestOutputStdoutAndFile(t *testing.T) {
	w, err := output("")
	if err != nil {
		t.Fatal(err)
	}
	if w.(nopWriteCloser).Writer != os.Stdout {
		t.Error("empty -out should resolve to stdout")
	}
	if err := w.Close(); err != nil {
		t.Error("closing the stdout wrapper must be a no-op")
	}

	path := filepath.Join(t.TempDir(), "nested", "dir", "report.txt")
	f, err := output(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello\n")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "hello\n" {
		t.Fatalf("read back %q, %v", data, err)
	}
}

func TestDefaultRunDir(t *testing.T) {
	dir := defaultRunDir()
	if !strings.HasPrefix(dir, "dsgexp_runs"+string(filepath.Separator)) {
		t.Errorf("run dir %q lacks the dsgexp_runs prefix", dir)
	}
}
