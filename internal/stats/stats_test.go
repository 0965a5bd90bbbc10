package stats

import (
	"math"
	"strings"
	"testing"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.Stddev-math.Sqrt(2)) > 1e-9 {
		t.Fatalf("stddev = %f", s.Stddev)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Fatal("empty summary not zero")
	}
}

func TestPercentile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 10}, {1, 40}, {0.5, 25}, {1.0 / 3, 20},
	}
	for _, c := range cases {
		if got := Percentile(sorted, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("P%.2f = %f, want %f", c.p, got, c.want)
		}
	}
	if Percentile(nil, 0.5) != 0 {
		t.Error("empty percentile should be 0")
	}
}

func TestMeanMaxInts(t *testing.T) {
	if MeanInts([]int{2, 4, 6}) != 4 {
		t.Error("mean wrong")
	}
	if MeanInts(nil) != 0 {
		t.Error("empty mean should be 0")
	}
	if MaxInts([]int{3, 9, 1}) != 9 {
		t.Error("max wrong")
	}
	if MaxInts(nil) != 0 {
		t.Error("empty max should be 0")
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("E1: demo", "n", "value", "note")
	tb.AddRow(8, 3.14159, "ok")
	tb.AddRow(1024, 12345.6, "big")
	out := tb.String()
	if !strings.Contains(out, "## E1: demo") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "3.142") {
		t.Errorf("float formatting: %s", out)
	}
	if !strings.Contains(out, "12346") {
		t.Errorf("large float formatting: %s", out)
	}
	// Title, header, separator, and two data rows.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("rendered %d lines, want 5", len(lines))
	}
}
