// Package obs is the serving stack's low-overhead observability layer:
// fixed-boundary log₂-bucket latency histograms (per op verb and per
// pipeline stage), retry-event counters, and a slowest-N span ring holding
// exemplar per-op traces with their per-leg breakdowns.
//
// Everything on the hot path is a handful of atomics — no locks, no
// allocation — and every call site threads through a *Tracer that may be
// nil, in which case the instrumented layer skips even the clock reads.
// Wall-clock measurements never feed the deterministic serving statistics:
// span durations are exempt from the byte-identical golden contracts
// exactly like E18's req/s column, while the other span fields (epoch,
// distance, hops) stay deterministic.
package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// --- histograms -------------------------------------------------------------

const (
	// NumBuckets is the number of finite histogram buckets. Bucket i counts
	// observations ≤ BucketBound(i); one extra overflow bucket catches the
	// rest. Bounds double from 256ns, so the finite range tops out around
	// two minutes — far past any sane op latency.
	NumBuckets = 30

	// firstBoundNanos is the smallest bucket's upper bound.
	firstBoundNanos = 256
)

// BucketBound returns the upper bound of finite bucket i.
func BucketBound(i int) time.Duration {
	return time.Duration(int64(firstBoundNanos) << uint(i))
}

// bucketOf maps a duration in nanoseconds onto its bucket index
// (NumBuckets = the overflow bucket).
func bucketOf(ns int64) int {
	if ns <= firstBoundNanos {
		return 0
	}
	i := bits.Len64(uint64(ns-1)) - 8
	if i >= NumBuckets {
		return NumBuckets
	}
	return i
}

// Histogram is a fixed-boundary log₂-bucket latency histogram. Observe is
// two atomic adds — the observation count is derived from the buckets at
// read time, keeping the hot path minimal; rendering and quantile
// estimation read a consistent enough snapshot for monitoring (individual
// loads race in-flight observations, as every lock-free collector does).
type Histogram struct {
	buckets [NumBuckets + 1]atomic.Int64
	sum     atomic.Int64 // total nanoseconds
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.buckets[bucketOf(ns)].Add(1)
	h.sum.Add(ns)
}

// Snapshot copies the bucket counts plus the running sum and count.
func (h *Histogram) Snapshot() (buckets [NumBuckets + 1]int64, sumNanos, count int64) {
	for i := range h.buckets {
		buckets[i] = h.buckets[i].Load()
		count += buckets[i]
	}
	return buckets, h.sum.Load(), count
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	var c int64
	for i := range h.buckets {
		c += h.buckets[i].Load()
	}
	return c
}

// Quantile estimates the q-quantile (0 < q ≤ 1) as the upper bound of the
// bucket holding the rank — the standard upper-bound estimate for
// fixed-boundary histograms. It returns 0 for an empty histogram; ranks
// landing in the overflow bucket report the largest finite bound.
func (h *Histogram) Quantile(q float64) time.Duration {
	buckets, _, count := h.Snapshot()
	if count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(count)))
	if rank < 1 {
		rank = 1
	}
	if rank > count {
		rank = count
	}
	var cum int64
	for i := 0; i < NumBuckets; i++ {
		cum += buckets[i]
		if cum >= rank {
			return BucketBound(i)
		}
	}
	return BucketBound(NumBuckets - 1)
}

// --- spans ------------------------------------------------------------------

// Span kinds mirror the op envelope's kinds (core.OpKind / lsasg.OpKind
// values), kept as plain integers so the wire codec round-trips spans
// without an import cycle.
const (
	KindRoute int64 = iota
	KindGet
	KindPut
	KindDelete
	KindScan
	numKinds
)

// KindName names a span kind for rendering.
func KindName(k int64) string {
	switch k {
	case KindRoute:
		return "route"
	case KindGet:
		return "get"
	case KindPut:
		return "put"
	case KindDelete:
		return "delete"
	case KindScan:
		return "scan"
	}
	return fmt.Sprintf("kind(%d)", k)
}

// LegSpan is one leg of an op: the route-phase work of one shard's
// step. Single-graph ops have exactly one leg; cross-shard routes and
// fanned scans carry one per participating shard. Nanos is wall time
// (exempt from the determinism contracts); everything else is
// deterministic.
type LegSpan struct {
	Shard    int64
	Distance int64
	Hops     int64
	Epoch    int64
	Nanos    int64
}

// Span is one op's compact trace record: identity (Seq, Kind, Src, Dst),
// the deterministic access-path measurements summed over its legs, and the
// wall-clock service time. Start is unix nanoseconds at record time; Start
// and TotalNanos (and the legs' Nanos) are the only wall-clock fields.
type Span struct {
	Seq        int64
	Kind       int64
	Src, Dst   int64
	Start      int64 // unix nanoseconds when the span was recorded
	TotalNanos int64 // summed leg service time (route-phase work)

	Epoch         int64 // shard epoch (mutations applied) the first leg routed at
	RouteDistance int64
	RouteHops     int64
	RouteMiss     bool
	Cross         bool // the op spanned more than one shard

	Legs []LegSpan
}

// DefaultRingSize is the slowest-span ring capacity.
const DefaultRingSize = 64

// spanRing retains the slowest-N spans seen so far: a min-heap on
// TotalNanos under a mutex, gated by an atomic admission threshold so that
// once the ring is full, faster-than-everything ops skip the lock (and the
// span allocation — see Tracer.WouldRecord) entirely.
type spanRing struct {
	min  atomic.Int64 // admission threshold once full; 0 admits everything
	mu   sync.Mutex
	cap  int
	heap []Span // min-heap on TotalNanos
}

func (r *spanRing) record(s Span) {
	if len(r.heap) == r.cap && s.TotalNanos <= r.min.Load() {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.heap) < r.cap {
		r.heap = append(r.heap, s)
		r.up(len(r.heap) - 1)
	} else {
		if s.TotalNanos <= r.heap[0].TotalNanos {
			return // raced a concurrent admit
		}
		r.heap[0] = s
		r.down(0)
	}
	if len(r.heap) == r.cap {
		r.min.Store(r.heap[0].TotalNanos)
	}
}

func (r *spanRing) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if r.heap[p].TotalNanos <= r.heap[i].TotalNanos {
			return
		}
		r.heap[p], r.heap[i] = r.heap[i], r.heap[p]
		i = p
	}
}

func (r *spanRing) down(i int) {
	n := len(r.heap)
	for {
		l, s := 2*i+1, i
		if l < n && r.heap[l].TotalNanos < r.heap[s].TotalNanos {
			s = l
		}
		if l+1 < n && r.heap[l+1].TotalNanos < r.heap[s].TotalNanos {
			s = l + 1
		}
		if s == i {
			return
		}
		r.heap[s], r.heap[i] = r.heap[i], r.heap[s]
		i = s
	}
}

func (r *spanRing) slowest(limit int) []Span {
	r.mu.Lock()
	out := make([]Span, len(r.heap))
	copy(out, r.heap)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalNanos != out[j].TotalNanos {
			return out[i].TotalNanos > out[j].TotalNanos
		}
		return out[i].Seq < out[j].Seq
	})
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// --- stages and retry events ------------------------------------------------

// Pipeline stages with their own latency histograms.
const (
	// StageRouteLeg is one shard leg's route half: the route of one op
	// plus any Get/Scan read and any Put/Delete write.
	StageRouteLeg = iota
	// StageAdjustApply is one shard leg's adjust half: the op's
	// transformation and scoped repair — on a sharded service's one-op
	// window, observed behind the answer.
	StageAdjustApply
	numStages
)

// StageName names a stage for metric labels.
func StageName(s int) string {
	switch s {
	case StageRouteLeg:
		return "route_leg"
	case StageAdjustApply:
		return "adjust_apply"
	}
	return fmt.Sprintf("stage(%d)", s)
}

// Retry events: conditions that degraded an op to a miss. Each is the
// served op's final answer; a wire client retries neither.
const (
	// EventUnknownKey is an op that ran into lsasg.ErrUnknownKey — the
	// endpoint is gone (deleted or removed). A deterministic miss, not
	// retried.
	EventUnknownKey = iota
	// EventDeadRoute is an op that ran into lsasg.ErrDeadNode — a
	// crash-failed peer whose repair has not landed yet.
	EventDeadRoute
	numEvents
)

// EventName names a retry event for metric labels.
func EventName(e int) string {
	switch e {
	case EventUnknownKey:
		return "unknown_key"
	case EventDeadRoute:
		return "dead_route"
	}
	return fmt.Sprintf("event(%d)", e)
}

// --- tracer -----------------------------------------------------------------

// VerbLatency is one verb's latency summary: observation count plus the
// p50/p99 upper-bound estimates, in nanoseconds.
type VerbLatency struct {
	Kind     int64
	Count    int64
	P50Nanos int64
	P99Nanos int64
}

// Tracer bundles the observability state one serving stack shares: per-verb
// and per-stage latency histograms, retry-event counters, and the
// slowest-span ring. A nil *Tracer is valid everywhere and disables
// everything — instrumented layers check for nil before reading the clock,
// so the disabled cost is one predictable branch per choke point.
type Tracer struct {
	verbs   [numKinds]Histogram
	stages  [numStages]Histogram
	retries [numEvents]atomic.Int64
	ring    spanRing
}

// NewTracer creates a tracer with the default slowest-span ring size.
func NewTracer() *Tracer { return NewTracerN(DefaultRingSize) }

// NewTracerN creates a tracer retaining the n slowest spans (n ≥ 1).
func NewTracerN(n int) *Tracer {
	if n < 1 {
		n = 1
	}
	t := &Tracer{}
	t.ring.cap = n
	t.ring.heap = make([]Span, 0, n)
	return t
}

// ObserveOp records one completed op's service time under its verb.
func (t *Tracer) ObserveOp(kind int64, d time.Duration) {
	if t == nil || kind < 0 || kind >= numKinds {
		return
	}
	t.verbs[kind].Observe(d)
}

// ObserveStage records one pipeline-stage duration.
func (t *Tracer) ObserveStage(stage int, d time.Duration) {
	if t == nil || stage < 0 || stage >= numStages {
		return
	}
	t.stages[stage].Observe(d)
}

// RetryEvent counts one transient retry condition.
func (t *Tracer) RetryEvent(event int) {
	if t == nil || event < 0 || event >= numEvents {
		return
	}
	t.retries[event].Add(1)
}

// RetryEvents returns the counter for one event.
func (t *Tracer) RetryEvents(event int) int64 {
	if t == nil || event < 0 || event >= numEvents {
		return 0
	}
	return t.retries[event].Load()
}

// WouldRecord reports whether a span of the given duration would currently
// be admitted to the slowest-span ring — the allocation-free pre-check
// callers use to skip building the span (and its legs slice) for the fast
// majority of ops once the ring has warmed up.
func (t *Tracer) WouldRecord(totalNanos int64) bool {
	if t == nil {
		return false
	}
	return len(t.ring.heap) < t.ring.cap || totalNanos > t.ring.min.Load()
}

// RecordSpan offers one span to the slowest-span ring.
func (t *Tracer) RecordSpan(s Span) {
	if t == nil {
		return
	}
	t.ring.record(s)
}

// SlowSpans returns up to limit retained spans, slowest first (limit ≤ 0
// returns all of them).
func (t *Tracer) SlowSpans(limit int) []Span {
	if t == nil {
		return nil
	}
	return t.ring.slowest(limit)
}

// VerbHistogram exposes one verb's latency histogram (nil kind → nil).
func (t *Tracer) VerbHistogram(kind int64) *Histogram {
	if t == nil || kind < 0 || kind >= numKinds {
		return nil
	}
	return &t.verbs[kind]
}

// StageHistogram exposes one stage's latency histogram.
func (t *Tracer) StageHistogram(stage int) *Histogram {
	if t == nil || stage < 0 || stage >= numStages {
		return nil
	}
	return &t.stages[stage]
}

// VerbLatencies summarizes every verb with at least one observation, in
// kind order.
func (t *Tracer) VerbLatencies() []VerbLatency {
	if t == nil {
		return nil
	}
	var out []VerbLatency
	for k := int64(0); k < numKinds; k++ {
		h := &t.verbs[k]
		c := h.Count()
		if c == 0 {
			continue
		}
		out = append(out, VerbLatency{
			Kind:     k,
			Count:    c,
			P50Nanos: int64(h.Quantile(0.50)),
			P99Nanos: int64(h.Quantile(0.99)),
		})
	}
	return out
}

// NumKinds returns the number of span kinds (for renderers iterating the
// verb histograms).
func NumKinds() int64 { return numKinds }

// NumStages returns the number of pipeline stages.
func NumStages() int { return numStages }

// NumEvents returns the number of retry-event kinds.
func NumEvents() int { return numEvents }
