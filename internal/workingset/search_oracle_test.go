package workingset

import (
	"math/rand"
	"testing"

	"lsasg/internal/workload"
)

// fullSearch is the query the tracker ran before it learned to stop at the
// active set, kept as the oracle for the early stop: a BFS from u and v over
// every contact made at or after the pair's last communication, run to the
// end. It reads the tracker's contact logs (held to the adjacency-scan
// refTracker by the differential tests) and leaves its state untouched.
func fullSearch(t *Tracker, u, v int) int {
	since, ok := t.lastPair[pairKey(u, v)]
	if !ok {
		return t.n
	}
	seen := make([]bool, t.n)
	seen[u], seen[v] = true, true
	queue := []int32{int32(u)}
	if v != u {
		queue = append(queue, int32(v))
	}
	for head := 0; head < len(queue); head++ {
		log := t.logs[queue[head]]
		for i := len(log) - 1; i >= 0 && log[i].time >= since; i-- {
			if to := log[i].to; !seen[to] {
				seen[to] = true
				queue = append(queue, to)
			}
		}
	}
	return len(queue)
}

// activeSince counts the nodes whose latest contact is at or after since —
// the bound the early stop compares the search against — by brute force.
func activeSince(t *Tracker, since int64) int {
	c := 0
	for _, l := range t.last {
		if l != 0 && l >= since {
			c++
		}
	}
	return c
}

// checkOrder holds the recency order to its definition: exactly the nodes
// that have communicated, linked both ways, latest contact first.
func checkOrder(t *testing.T, tr *Tracker) {
	t.Helper()
	seen, prev := 0, int32(-1)
	for x := tr.recent; x >= 0; x = tr.next[x] {
		if tr.prev[x] != prev {
			t.Fatalf("node %d: prev %d, want %d", x, tr.prev[x], prev)
		}
		if tr.last[x] == 0 {
			t.Fatalf("node %d is in the recency order with no contact", x)
		}
		if prev >= 0 && tr.last[x] > tr.last[prev] {
			t.Fatalf("node %d (last %d) follows node %d (last %d)", x, tr.last[x], prev, tr.last[prev])
		}
		if seen++; seen > tr.n {
			t.Fatal("the recency order has a cycle")
		}
		prev = x
	}
	contacted := 0
	for _, l := range tr.last {
		if l != 0 {
			contacted++
		}
	}
	if seen != contacted {
		t.Fatalf("the recency order holds %d nodes, %d have communicated", seen, contacted)
	}
}

// trafficShape draws one request pair over the tracker's current N.
type trafficShape struct {
	name string
	next func(rng *rand.Rand, n int) (int, int)
}

// fromGenerator replays a workload generator's pairs, regenerated whenever
// the stream runs out.
func fromGenerator(g func(seed int64) workload.Generator, n int) func(*rand.Rand, int) (int, int) {
	var reqs []workload.Request
	return func(rng *rand.Rand, _ int) (int, int) {
		if len(reqs) == 0 {
			reqs = g(rng.Int63()).Generate(n, 4096)
		}
		r := reqs[0]
		reqs = reqs[1:]
		return r.Src, r.Dst
	}
}

func shapes(n int) []trafficShape {
	return []trafficShape{
		{"uniform", func(rng *rand.Rand, n int) (int, int) { return rng.Intn(n), rng.Intn(n) }},
		// One origin scanning keys: the pairs a daemon serving scans from
		// origin 0 feeds the bound.
		{"star", func(rng *rand.Rand, n int) (int, int) { return 0, 1 + rng.Intn(n-1) }},
		{"zipf", fromGenerator(func(seed int64) workload.Generator { return workload.Zipf{Seed: seed, S: 1.2} }, n)},
		{"clustered", fromGenerator(func(seed int64) workload.Generator {
			return workload.Clustered{Seed: seed, C: 8, Local: 0.9}
		}, n)},
	}
}

// queryAndRecord checks one bare query and one Record against the full
// search and tallies whether the answer reached the whole active set (the
// case the search stops early on) or fell short of it.
func queryAndRecord(t *testing.T, tr *Tracker, u, v int, stopped, short *int) {
	t.Helper()
	want := fullSearch(tr, u, v)
	if got := tr.WorkingSetNumber(u, v); got != want {
		t.Fatalf("clock %d: WorkingSetNumber(%d, %d) = %d, full search %d", tr.clock, u, v, got, want)
	}
	if since, ok := tr.lastPair[pairKey(u, v)]; ok {
		if want == activeSince(tr, since) {
			*stopped++
		} else {
			*short++
		}
	}
	if got := tr.Record(u, v); got != want {
		t.Fatalf("clock %d: Record(%d, %d) = %d, full search %d", tr.clock, u, v, got, want)
	}
}

// TestEarlyStopMatchesFullSearch holds every working-set number to the full
// search on uniform, star, Zipf and clustered traffic at two sizes, with the
// recency order checked along the way. Every shape must produce answers that
// reached the whole active set (where the search stops early), and all but
// the star answers that fell short of it (where it runs to the end): in a
// star every active node has met the origin inside the window.
func TestEarlyStopMatchesFullSearch(t *testing.T) {
	for _, n := range []int{48, 256} {
		steps := 80 * n // long enough for uniform pairs at n = 256 to repeat
		if testing.Short() {
			steps /= 4
		}
		for si, shape := range shapes(n) {
			rng := rand.New(rand.NewSource(int64(31*n + si)))
			tr := NewTracker(n)
			stopped, short := 0, 0
			for i := 0; i < steps; i++ {
				u, v := shape.next(rng, n)
				queryAndRecord(t, tr, u, v, &stopped, &short)
				if i%500 == 0 {
					checkOrder(t, tr)
				}
			}
			checkOrder(t, tr)
			checkLogs(t, tr)
			t.Logf("n=%d %s: %d answers reached the active set, %d fell short", n, shape.name, stopped, short)
			if stopped == 0 || short == 0 && shape.name != "star" {
				t.Errorf("n=%d %s: %d answers reached the active set, %d fell short; want both", n, shape.name, stopped, short)
			}
		}
	}
}

// TestEarlyStopAcrossGrow runs the same check while the tracker grows: a new
// node joins the key space with no contact, outside the recency order, and
// enters it with its first communication.
func TestEarlyStopAcrossGrow(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := NewTracker(4 + rng.Intn(8))
		stopped, short := 0, 0
		for i := 0; i < 1500; i++ {
			if rng.Intn(30) == 0 {
				tr.Grow()
				checkOrder(t, tr)
			}
			n := tr.N()
			u, v := rng.Intn(n), rng.Intn(n)
			if rng.Intn(2) == 0 { // half the traffic from the newest nodes
				u = n - 1 - rng.Intn(min(n, 4))
			}
			queryAndRecord(t, tr, u, v, &stopped, &short)
		}
		checkOrder(t, tr)
		if stopped == 0 || short == 0 {
			t.Errorf("seed %d: %d answers reached the active set, %d fell short; want both", seed, stopped, short)
		}
	}
}
