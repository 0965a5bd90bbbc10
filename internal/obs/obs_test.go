package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestBucketOf(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{0, 0}, {1, 0}, {255, 0}, {256, 0},
		{257, 1}, {512, 1},
		{513, 2}, {1024, 2},
		{int64(BucketBound(NumBuckets - 1)), NumBuckets - 1},
		{int64(BucketBound(NumBuckets-1)) + 1, NumBuckets},
		{1 << 62, NumBuckets},
	}
	for _, c := range cases {
		if got := bucketOf(c.ns); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
	// Every finite bucket's bound must land in its own bucket.
	for i := 0; i < NumBuckets; i++ {
		if got := bucketOf(int64(BucketBound(i))); got != i {
			t.Errorf("bucketOf(BucketBound(%d)) = %d", i, got)
		}
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	var h Histogram
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("empty histogram p50 = %v, want 0", q)
	}
	// 99 fast observations and 1 slow one: p50 stays in the fast bucket,
	// p99+ sees the slow one.
	for i := 0; i < 99; i++ {
		h.Observe(200 * time.Nanosecond)
	}
	h.Observe(100 * time.Microsecond)
	if c := h.Count(); c != 100 {
		t.Fatalf("count = %d, want 100", c)
	}
	if p50 := h.Quantile(0.50); p50 != BucketBound(0) {
		t.Errorf("p50 = %v, want %v", p50, BucketBound(0))
	}
	p999 := h.Quantile(0.999)
	if p999 < 100*time.Microsecond {
		t.Errorf("p99.9 = %v, want ≥ 100µs", p999)
	}
	buckets, sum, count := h.Snapshot()
	if buckets[0] != 99 {
		t.Errorf("bucket[0] = %d, want 99", buckets[0])
	}
	if wantSum := int64(99*200 + 100_000); sum != wantSum {
		t.Errorf("sum = %d, want %d", sum, wantSum)
	}
	if count != 100 {
		t.Errorf("snapshot count = %d, want 100", count)
	}
}

func TestHistogramNegativeDurationClamped(t *testing.T) {
	var h Histogram
	h.Observe(-time.Second)
	buckets, sum, _ := h.Snapshot()
	if buckets[0] != 1 || sum != 0 {
		t.Fatalf("negative observation: bucket[0]=%d sum=%d, want 1/0", buckets[0], sum)
	}
}

func TestSpanRingKeepsSlowest(t *testing.T) {
	tr := NewTracerN(4)
	for i := int64(1); i <= 10; i++ {
		tr.RecordSpan(Span{Seq: i, TotalNanos: i * 100})
	}
	got := tr.SlowSpans(0)
	if len(got) != 4 {
		t.Fatalf("retained %d spans, want 4", len(got))
	}
	for i, want := range []int64{1000, 900, 800, 700} {
		if got[i].TotalNanos != want {
			t.Errorf("slowest[%d].TotalNanos = %d, want %d", i, got[i].TotalNanos, want)
		}
	}
	// Once full, a too-fast span must not be admitted (and WouldRecord
	// must agree before the caller even builds the span).
	if tr.WouldRecord(600) {
		t.Error("WouldRecord(600) = true with min retained 700")
	}
	if !tr.WouldRecord(800) {
		t.Error("WouldRecord(800) = false with min retained 700")
	}
	tr.RecordSpan(Span{Seq: 99, TotalNanos: 600})
	if got := tr.SlowSpans(0); got[len(got)-1].TotalNanos != 700 {
		t.Errorf("fast span displaced a slower one: min = %d", got[len(got)-1].TotalNanos)
	}
	// Limit truncates.
	if got := tr.SlowSpans(2); len(got) != 2 || got[0].TotalNanos != 1000 {
		t.Errorf("SlowSpans(2) = %+v", got)
	}
}

func TestSpanRingConcurrent(t *testing.T) {
	tr := NewTracerN(8)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tr.RecordSpan(Span{Seq: int64(w*1000 + i), TotalNanos: int64(i)})
			}
		}(w)
	}
	wg.Wait()
	got := tr.SlowSpans(0)
	if len(got) != 8 {
		t.Fatalf("retained %d spans, want 8", len(got))
	}
	// Every retained span must be among the slowest observed values
	// (999 was recorded by all four workers; the 8 slowest all have
	// TotalNanos ≥ 998).
	for _, s := range got {
		if s.TotalNanos < 998 {
			t.Errorf("retained span with TotalNanos=%d, want ≥ 998", s.TotalNanos)
		}
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.ObserveOp(KindGet, time.Millisecond)
	tr.ObserveStage(StageRouteLeg, time.Millisecond)
	tr.RecordSpan(Span{TotalNanos: 1})
	if tr.WouldRecord(1) {
		t.Error("nil tracer WouldRecord = true")
	}
	if got := tr.SlowSpans(0); got != nil {
		t.Errorf("nil tracer SlowSpans = %v", got)
	}
	if got := tr.VerbLatencies(); got != nil {
		t.Errorf("nil tracer VerbLatencies = %v", got)
	}
	if tr.VerbHistogram(KindGet) != nil || tr.StageHistogram(StageRouteLeg) != nil {
		t.Error("nil tracer histograms are non-nil")
	}
}

func TestTracerVerbLatencies(t *testing.T) {
	tr := NewTracer()
	tr.ObserveOp(KindRoute, 300*time.Nanosecond)
	tr.ObserveOp(KindRoute, 300*time.Nanosecond)
	tr.ObserveOp(KindScan, 2*time.Microsecond)
	tr.ObserveOp(int64(-1), time.Second) // out of range: dropped
	tr.ObserveOp(NumKinds(), time.Second)
	ls := tr.VerbLatencies()
	if len(ls) != 2 {
		t.Fatalf("VerbLatencies = %+v, want 2 entries", ls)
	}
	if ls[0].Kind != KindRoute || ls[0].Count != 2 {
		t.Errorf("ls[0] = %+v", ls[0])
	}
	if ls[1].Kind != KindScan || ls[1].Count != 1 {
		t.Errorf("ls[1] = %+v", ls[1])
	}
	if ls[0].P50Nanos <= 0 || ls[0].P99Nanos < ls[0].P50Nanos {
		t.Errorf("quantiles out of order: %+v", ls[0])
	}
}

func TestNames(t *testing.T) {
	for k, want := range map[int64]string{
		KindRoute: "route", KindGet: "get", KindPut: "put",
		KindDelete: "delete", KindScan: "scan", 99: "kind(99)",
	} {
		if got := KindName(k); got != want {
			t.Errorf("KindName(%d) = %q, want %q", k, got, want)
		}
	}
	if StageName(StageRouteLeg) != "route_leg" || StageName(StageAdjustApply) != "adjust_apply" {
		t.Error("stage names changed")
	}
	if StageName(99) != "stage(99)" {
		t.Error("out-of-range names changed")
	}
}

func TestBucketBoundsRender(t *testing.T) {
	// The collector renders bounds in seconds with %g; make sure the
	// smallest and largest are sane and strictly increasing.
	prev := time.Duration(0)
	for i := 0; i < NumBuckets; i++ {
		b := BucketBound(i)
		if b <= prev {
			t.Fatalf("bound %d (%v) not greater than previous (%v)", i, b, prev)
		}
		prev = b
	}
	if BucketBound(0) != 256*time.Nanosecond {
		t.Errorf("first bound = %v", BucketBound(0))
	}
	if BucketBound(NumBuckets-1) < time.Minute {
		t.Errorf("last finite bound = %v, want ≥ 1m", BucketBound(NumBuckets-1))
	}
	_ = fmt.Sprintf("%g", BucketBound(0).Seconds())
}
