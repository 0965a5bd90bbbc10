package workingset

import (
	"math"
	"math/rand"
	"testing"
)

// TestFigure2 reproduces the paper's Fig 2: for the access pattern
// e→a, a→k, u→b(?), ..., ending with a repeat of (u, v), the communication
// graph restricted to the window since the last (u, v) communication
// connects exactly 5 distinct nodes to u or v, so T(u, v) = 5.
//
// We use the pattern described in the figure: after (u,v) communicate,
// nodes e, a, k, u, v exchange messages while other pairs (x, y) also
// communicate but stay disconnected from u and v; the repeated (u, v)
// request then has working-set number 5.
func TestFigure2(t *testing.T) {
	// Node indices: u=0, v=1, e=2, a=3, k=4, x=5, y=6, z=7.
	tr := NewTracker(8)
	tr.Record(0, 1) // u ↔ v   (the "last time u and v communicated")
	tr.Record(2, 3) // e ↔ a
	tr.Record(3, 4) // a ↔ k
	tr.Record(4, 0) // k ↔ u   connects {e,a,k} to u
	tr.Record(5, 6) // x ↔ y   unrelated component
	tr.Record(6, 7) // y ↔ z   unrelated component
	got := tr.WorkingSetNumber(0, 1)
	if got != 5 {
		t.Fatalf("T(u,v) = %d, want 5 (e, a, k, u, v)", got)
	}
}

// TestFigure3 checks the working-set bound scenario of Fig 3 / Theorem 1's
// example: U and V communicate, then k-1 other nodes communicate with
// members of the window; the working-set number for the repeat (U, V) is
// k+1, so the distance bound is log2(k+1).
func TestFigure3Scenario(t *testing.T) {
	k := 8
	tr := NewTracker(2 * k)
	tr.Record(0, 1) // U ↔ V at time t'
	// A1..A_{k-1} communicate in a chain hanging off U.
	prev := 0
	for i := 2; i <= k; i++ {
		tr.Record(prev, i)
		prev = i
	}
	got := tr.WorkingSetNumber(0, 1)
	if got != k+1 {
		t.Fatalf("T(U,V) = %d, want %d", got, k+1)
	}
}

func TestFirstTimePairIsN(t *testing.T) {
	tr := NewTracker(10)
	if got := tr.WorkingSetNumber(3, 7); got != 10 {
		t.Fatalf("first-time pair: T = %d, want n = 10", got)
	}
	tr.Record(3, 7)
	if got := tr.WorkingSetNumber(3, 7); got != 2 {
		t.Fatalf("immediate repeat: T = %d, want 2", got)
	}
}

func TestWindowRestriction(t *testing.T) {
	// Communication before the last (u,v) exchange must not count.
	tr := NewTracker(6)
	tr.Record(0, 2) // u ↔ a (old)
	tr.Record(2, 3) // a ↔ b (old)
	tr.Record(0, 1) // u ↔ v  ← window starts here
	tr.Record(0, 4) // u ↔ c (new)
	// Old edges (u,a) and (a,b) are outside the window: a's last
	// communication with u was at time 1 < window start 3.
	if got := tr.WorkingSetNumber(0, 1); got != 3 {
		t.Fatalf("T = %d, want 3 (u, v, c)", got)
	}
	// But if a communicates with u again, it re-enters the window, and
	// the a–b edge is still stale.
	tr.Record(0, 2)
	if got := tr.WorkingSetNumber(0, 1); got != 4 {
		t.Fatalf("T = %d, want 4 (u, v, c, a)", got)
	}
}

func TestSymmetry(t *testing.T) {
	tr := NewTracker(5)
	tr.Record(1, 2)
	if tr.WorkingSetNumber(1, 2) != tr.WorkingSetNumber(2, 1) {
		t.Fatal("working-set number not symmetric")
	}
}

func TestRecordReturnsPreRecordingNumber(t *testing.T) {
	tr := NewTracker(4)
	if got := tr.Record(0, 1); got != 4 {
		t.Fatalf("first Record returned %d, want n = 4", got)
	}
	if got := tr.Record(0, 1); got != 2 {
		t.Fatalf("repeat Record returned %d, want 2", got)
	}
}

func TestBoundAccumulation(t *testing.T) {
	b := NewBound(8)
	b.Add(0, 1) // T = 8 → log2 8 = 3
	b.Add(0, 1) // T = 2 → log2 2 = 1
	want := 3.0 + 1.0
	if math.Abs(b.Total()-want) > 1e-9 {
		t.Fatalf("WS = %f, want %f", b.Total(), want)
	}
	if math.Abs(b.PerRequest()-want/2) > 1e-9 {
		t.Fatalf("per-request = %f", b.PerRequest())
	}
	if b.Count() != 2 {
		t.Fatalf("count = %d", b.Count())
	}
}

// TestRepeatedPairConverges: with only one pair communicating, every
// working-set number after the first is 2, so WS grows by 1 per request.
func TestRepeatedPairConverges(t *testing.T) {
	b := NewBound(100)
	b.Add(10, 20)
	for i := 0; i < 50; i++ {
		if ws := b.Add(10, 20); ws != 2 {
			t.Fatalf("repeat %d: T = %d, want 2", i, ws)
		}
	}
}

// TestWorkingSetMonotoneInActivity: more unrelated-but-connected activity
// between repeats cannot decrease the working-set number.
func TestWorkingSetMonotoneInActivity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 20
		extra := rng.Intn(8)
		tr := NewTracker(n)
		tr.Record(0, 1)
		// A connected chain of `extra` communications touching node 0.
		prev := 0
		for i := 0; i < extra; i++ {
			next := 2 + i
			tr.Record(prev, next)
			prev = next
		}
		got := tr.WorkingSetNumber(0, 1)
		if got != 2+extra {
			t.Fatalf("extra=%d: T = %d, want %d", extra, got, 2+extra)
		}
	}
}

func TestPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-range node")
		}
	}()
	tr := NewTracker(4)
	tr.WorkingSetNumber(0, 9)
}

// refTracker is the tracker this package replaced, kept as the reference the
// differential tests hold the contact-log tracker to: one adjacency entry
// per peer carrying the latest communication time, and a map-visited BFS
// over every entry of every reached node.
type refTracker struct {
	n        int
	clock    int
	lastPair map[[2]int]int
	adj      map[int][]refEdge
}

type refEdge struct {
	to   int
	last int // most recent communication time on this edge
}

func newRefTracker(n int) *refTracker {
	return &refTracker{n: n, lastPair: make(map[[2]int]int), adj: make(map[int][]refEdge)}
}

func refPair(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

func (t *refTracker) WorkingSetNumber(u, v int) int {
	since, ok := t.lastPair[refPair(u, v)]
	if !ok {
		return t.n
	}
	visited := map[int]bool{u: true, v: true}
	queue := []int{u, v}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, e := range t.adj[x] {
			if e.last >= since && !visited[e.to] {
				visited[e.to] = true
				queue = append(queue, e.to)
			}
		}
	}
	return len(visited)
}

func (t *refTracker) Record(u, v int) int {
	ws := t.WorkingSetNumber(u, v)
	t.clock++
	t.lastPair[refPair(u, v)] = t.clock
	t.bumpEdge(u, v)
	t.bumpEdge(v, u)
	return ws
}

func (t *refTracker) bumpEdge(from, to int) {
	list := t.adj[from]
	for i := range list {
		if list[i].to == to {
			list[i].last = t.clock
			return
		}
	}
	t.adj[from] = append(list, refEdge{to: to, last: t.clock})
}

// pairSource draws request pairs: uniform over [0, n), or — with hot > 0 —
// nine times in ten from the first hot nodes, the regime in which a few logs
// fill with repeats of a few peers and compact over and over. One draw in
// sixteen is a self-pair, which the trackers accept.
func pairSource(rng *rand.Rand, n, hot int) func() (int, int) {
	node := func() int {
		if hot > 0 && rng.Intn(10) > 0 {
			return rng.Intn(hot)
		}
		return rng.Intn(n)
	}
	return func() (int, int) {
		u := node()
		if rng.Intn(16) == 0 {
			return u, u
		}
		return u, node()
	}
}

// checkLogs holds every contact log to its documented shape: time-ordered,
// no longer than twice its distinct peers plus the slack, and the peer count
// it is compacted against exact.
func checkLogs(t *testing.T, tr *Tracker) {
	t.Helper()
	for x, log := range tr.logs {
		distinct := map[int32]bool{}
		for i, c := range log {
			distinct[c.to] = true
			if i > 0 && c.time < log[i-1].time {
				t.Fatalf("node %d: log out of time order at %d: %v", x, i, log)
			}
		}
		if len(distinct) != int(tr.peers[x]) {
			t.Fatalf("node %d: %d distinct peers logged, peers[] says %d", x, len(distinct), tr.peers[x])
		}
		if len(log) > 2*len(distinct)+compactSlack {
			t.Fatalf("node %d: log holds %d contacts for %d peers", x, len(log), len(distinct))
		}
	}
}

// runDifferential feeds one request stream to both trackers, interleaving
// bare queries with records, and demands equal answers at every step. It
// returns how many compactions the stream forced.
func runDifferential(t *testing.T, tr *Tracker, n, steps int, next func() (int, int), rng *rand.Rand) (compactions int) {
	t.Helper()
	ref := newRefTracker(n)
	for i := 0; i < steps; i++ {
		u, v := next()
		if rng.Intn(3) == 0 {
			qu, qv := next()
			if got, want := tr.WorkingSetNumber(qu, qv), ref.WorkingSetNumber(qu, qv); got != want {
				t.Fatalf("step %d: WorkingSetNumber(%d, %d) = %d, reference %d", i, qu, qv, got, want)
			}
		}
		before := len(tr.logs[u])
		got, want := tr.Record(u, v), ref.Record(u, v)
		if got != want {
			t.Fatalf("step %d: Record(%d, %d) = %d, reference %d", i, u, v, got, want)
		}
		if len(tr.logs[u]) <= before {
			compactions++
		}
		if tr.Clock() != ref.clock {
			t.Fatalf("step %d: clock %d, reference %d", i, tr.Clock(), ref.clock)
		}
	}
	checkLogs(t, tr)
	return compactions
}

// TestDifferentialAgainstReference holds the contact-log tracker to the
// adjacency-scan one it replaced: 200 seeds of small systems (n ≤ 40, where
// every log compacts many times) and a handful at n = 512, on uniform and
// hot-set pairs, equal at every Record and every interleaved query.
func TestDifferentialAgainstReference(t *testing.T) {
	crossed := 0
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(39)
		hot := 0
		if seed%2 == 1 {
			hot = 1 + rng.Intn(min(n, 6))
		}
		crossed += runDifferential(t, NewTracker(n), n, 600, pairSource(rng, n, hot), rng)
	}
	if crossed == 0 {
		t.Fatal("no stream crossed a compaction; the differential never covered one")
	}
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		hot := 0
		if seed%2 == 1 {
			hot = 24
		}
		if runDifferential(t, NewTracker(512), 512, 6000, pairSource(rng, 512, hot), rng) == 0 && hot > 0 {
			t.Fatalf("seed %d: the hot-set stream at n = 512 crossed no compaction", seed)
		}
	}
}

// TestQueryAcrossCompaction pins the one thing compaction may not change: a
// window that opens before contacts the compaction drops still counts their
// peers, because each peer's latest contact survives.
func TestQueryAcrossCompaction(t *testing.T) {
	const n = 8
	tr, ref := NewTracker(n), newRefTracker(n)
	both := func(u, v int) {
		t.Helper()
		if got, want := tr.Record(u, v), ref.Record(u, v); got != want {
			t.Fatalf("Record(%d, %d) = %d, reference %d", u, v, got, want)
		}
	}
	both(0, 1) // the window of (0, 1) opens here
	both(0, 2)
	both(0, 3)
	for before := 0; len(tr.logs[0]) > before; { // repeat (0, 4) until node 0's log has compacted
		before = len(tr.logs[0])
		both(0, 4)
	}
	if got := tr.WorkingSetNumber(0, 1); got != 5 || got != ref.WorkingSetNumber(0, 1) {
		t.Fatalf("T(0, 1) after compaction = %d, want 5 (reference %d)", got, ref.WorkingSetNumber(0, 1))
	}
	checkLogs(t, tr)
}

// TestRepeatedPairLogStaysBounded repeats one pair 10⁴ times: the log is an
// append per request, so only compaction keeps it from growing with history.
func TestRepeatedPairLogStaysBounded(t *testing.T) {
	tr := NewTracker(4)
	for i := 0; i < 10_000; i++ {
		tr.Record(1, 2)
		for _, x := range []int{1, 2} {
			if len(tr.logs[x]) > 2*1+compactSlack {
				t.Fatalf("request %d: node %d's log holds %d contacts for one peer", i, x, len(tr.logs[x]))
			}
		}
	}
	if got := tr.WorkingSetNumber(1, 2); got != 2 {
		t.Fatalf("T(1, 2) = %d, want 2", got)
	}
}

// TestVisitEpochWrap runs the differential across the 32-bit visit stamp's
// wrap: stale stamps must not read as visited afterwards.
func TestVisitEpochWrap(t *testing.T) {
	const n = 24
	rng := rand.New(rand.NewSource(5))
	tr := NewTracker(n)
	next := pairSource(rng, n, 4)
	ref := newRefTracker(n)
	for i := 0; i < 400; i++ {
		u, v := next()
		tr.Record(u, v)
		ref.Record(u, v)
	}
	tr.epoch = math.MaxUint32 - 40
	wrapped := false
	for i := 0; i < 400; i++ {
		u, v := next()
		before := tr.epoch
		if got, want := tr.Record(u, v), ref.Record(u, v); got != want {
			t.Fatalf("step %d (epoch %d): Record(%d, %d) = %d, reference %d", i, tr.epoch, u, v, got, want)
		}
		wrapped = wrapped || tr.epoch < before
	}
	if !wrapped {
		t.Fatal("the visit epoch never wrapped")
	}
}

// TestWorkingSetAddAllocs: once every pair of the stream is known and the
// logs have been through a compaction, recording a request — the query, two
// appends, now and then a compaction — allocates nothing.
func TestWorkingSetAddAllocs(t *testing.T) {
	const n = 512
	rng := rand.New(rand.NewSource(9))
	pairs := make([][2]int, 2048)
	next := pairSource(rng, n, 32)
	for i := range pairs {
		u, v := next()
		pairs[i] = [2]int{u, v}
	}
	b := NewBound(n)
	for round := 0; round < 4; round++ {
		for _, p := range pairs {
			b.Add(p[0], p[1])
		}
	}
	i := 0
	if avg := testing.AllocsPerRun(4096, func() {
		p := pairs[i%len(pairs)]
		i++
		b.Add(p[0], p[1])
	}); avg != 0 {
		t.Fatalf("%.2f allocs per Add in steady state, want 0", avg)
	}
}

// TestGrowAgainstReference grows the tracker between records and holds it to
// the reference grown at the same points: every Record and interleaved query
// agrees, and each new node's first pair answers the N() it joined into.
func TestGrowAgainstReference(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		tr, ref := NewTracker(n), newRefTracker(n)
		grown := 0
		for i := 0; i < 600; i++ {
			if rng.Intn(40) == 0 {
				tr.Grow()
				ref.n++
				grown++
				x := rng.Intn(tr.N() - 1)
				if got := tr.WorkingSetNumber(tr.N()-1, x); got != tr.N() || got != ref.WorkingSetNumber(tr.N()-1, x) {
					t.Fatalf("seed %d: T(new %d, %d) = %d, want N() = %d", seed, tr.N()-1, x, got, tr.N())
				}
			}
			u, v := rng.Intn(tr.N()), rng.Intn(tr.N())
			if rng.Intn(3) == 0 {
				qu, qv := rng.Intn(tr.N()), rng.Intn(tr.N())
				if got, want := tr.WorkingSetNumber(qu, qv), ref.WorkingSetNumber(qu, qv); got != want {
					t.Fatalf("seed %d step %d: WorkingSetNumber(%d, %d) = %d, reference %d", seed, i, qu, qv, got, want)
				}
			}
			if got, want := tr.Record(u, v), ref.Record(u, v); got != want {
				t.Fatalf("seed %d step %d: Record(%d, %d) = %d, reference %d", seed, i, u, v, got, want)
			}
		}
		if grown == 0 {
			t.Fatalf("seed %d: the tracker never grew", seed)
		}
		checkLogs(t, tr)
	}
}

// Clock returns the current logical time (the number of recorded requests).
func (t *Tracker) Clock() int { return int(t.clock) }

// PerRequest returns WS(σ)/m, the amortized per-request lower bound.
func (b *Bound) PerRequest() float64 {
	if b.count == 0 {
		return 0
	}
	return b.total / float64(b.count)
}
