// Package workingset implements the paper's working-set machinery (§III):
// the communication graph, the working-set number T_t(u, v), and the
// working-set bound WS(σ) = Σ log2 T_i(σ_i) (Theorem 1's lower bound on the
// amortized routing cost of any algorithm conforming to the model).
//
// The working-set number for a request (u, v) at time t is defined over the
// communication graph G restricted to the time window that starts at the
// last time u and v communicated with each other and ends at t: it is the
// number of distinct nodes reachable from u or v in that restricted graph.
// If u and v never communicated before, T_t(u, v) = n by definition.
//
// The tracker keeps the communication graph as one time-ordered contact log
// per node, so a query walks each reached node's log backwards and stops at
// the first contact older than the window: it costs the contacts made inside
// the window — what the definition speaks of — not the history before it,
// and it allocates nothing. Recording a request is two appends. A log may
// therefore hold several contacts with one peer; only the latest can matter
// to a query (an older one is inside a window only if the latest is too), so
// a log that has grown past twice its distinct peers is compacted to the
// latest contact per peer, which bounds memory by 4·pairs + 8n contacts.
package workingset

import (
	"fmt"
	"math"
)

// contact is one logged communication of a node: the peer and the time.
type contact struct {
	to   int32
	time int64
}

// compactSlack is how far past twice its distinct peers a log may grow: a
// log is compacted when an append would take it beyond that, and the slack
// keeps nodes with a handful of peers from compacting every few requests.
const compactSlack = 8

// Tracker maintains the communication history of an n-node system and
// answers working-set-number queries. Memory is O(#distinct pairs + n).
type Tracker struct {
	n        int
	clock    int64
	lastPair map[uint64]int64 // last time each unordered pair communicated
	logs     [][]contact      // logs[x]: x's contacts, oldest first
	peers    []int32          // peers[x]: distinct peers in logs[x]

	// A query's scratch, reused: x is visited in this query (or compaction
	// pass) iff mark[x] == epoch; queue is the BFS frontier.
	mark  []uint32
	epoch uint32
	queue []int32
}

// NewTracker creates a Tracker for n nodes. Time starts at 1 on the first
// Record call (timestamps are always positive, matching the paper's
// requirement that t > any stored timestamp).
func NewTracker(n int) *Tracker {
	if n < 2 {
		panic(fmt.Sprintf("workingset: need at least 2 nodes, got %d", n))
	}
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("workingset: %d nodes exceed the contact log's 32-bit ids", n))
	}
	return &Tracker{
		n:        n,
		lastPair: make(map[uint64]int64),
		logs:     make([][]contact, n),
		peers:    make([]int32, n),
		mark:     make([]uint32, n),
	}
}

// Grow adds one node to the system, with index N() before the call. It has
// communicated with no one, so every pair it is part of gets T = the new N()
// until it communicates.
func (t *Tracker) Grow() {
	if t.n == math.MaxInt32 {
		panic(fmt.Sprintf("workingset: %d nodes exceed the contact log's 32-bit ids", t.n+1))
	}
	t.n++
	t.logs = append(t.logs, nil)
	t.peers = append(t.peers, 0)
	t.mark = append(t.mark, 0)
}

// pairKey packs an unordered node pair into one map key.
func pairKey(u, v int) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

// N returns the number of nodes in the system.
func (t *Tracker) N() int { return t.n }

// nextEpoch starts a fresh visit set. Stamps from 2³² passes ago would read
// as current after a wrap, so the wrap clears them.
func (t *Tracker) nextEpoch() uint32 {
	t.epoch++
	if t.epoch == 0 {
		clear(t.mark)
		t.epoch = 1
	}
	return t.epoch
}

// WorkingSetNumber returns T_{now}(u, v) for the next request (u, v): the
// number of distinct nodes connected to u or v in the communication graph
// restricted to edges whose most recent communication happened at or after
// the last (u, v) communication. Returns n when the pair never communicated.
func (t *Tracker) WorkingSetNumber(u, v int) int {
	t.checkNode(u)
	t.checkNode(v)
	since, ok := t.lastPair[pairKey(u, v)]
	if !ok {
		return t.n
	}
	// BFS from u and v over contacts made at or after since. u and v
	// themselves count (they communicated at time since, within the window).
	epoch := t.nextEpoch()
	t.mark[u], t.mark[v] = epoch, epoch
	queue := append(t.queue[:0], int32(u))
	if v != u {
		queue = append(queue, int32(v))
	}
	for head := 0; head < len(queue); head++ {
		log := t.logs[queue[head]]
		for i := len(log) - 1; i >= 0 && log[i].time >= since; i-- {
			if to := log[i].to; t.mark[to] != epoch {
				t.mark[to] = epoch
				queue = append(queue, to)
			}
		}
	}
	t.queue = queue
	return len(queue)
}

// Record advances the logical clock and records a communication between u
// and v at the new time. It returns the working-set number the request had
// at the moment it was issued (i.e. computed before recording).
func (t *Tracker) Record(u, v int) int {
	ws := t.WorkingSetNumber(u, v)
	t.clock++
	key := pairKey(u, v)
	_, known := t.lastPair[key]
	t.lastPair[key] = t.clock
	t.logContact(u, v, !known)
	if v != u {
		t.logContact(v, u, !known)
	}
	return ws
}

// logContact appends from's contact with to at the current time, compacting
// the log first when it has outgrown its distinct peers.
func (t *Tracker) logContact(from, to int, newPeer bool) {
	if newPeer {
		t.peers[from]++
	}
	if len(t.logs[from]) >= 2*int(t.peers[from])+compactSlack {
		t.compact(from)
	}
	t.logs[from] = append(t.logs[from], contact{to: int32(to), time: t.clock})
}

// compact keeps the latest contact per peer of x's log, in time order, in
// place: walking backwards, the first contact met with a peer is its latest,
// and the kept ones gather at the log's tail before sliding to its front.
func (t *Tracker) compact(x int) {
	log := t.logs[x]
	epoch := t.nextEpoch()
	w := len(log)
	for i := len(log) - 1; i >= 0; i-- {
		if to := log[i].to; t.mark[to] != epoch {
			t.mark[to] = epoch
			w--
			log[w] = log[i]
		}
	}
	t.logs[x] = log[:copy(log, log[w:])]
}

func (t *Tracker) checkNode(x int) {
	if x < 0 || x >= t.n {
		panic(fmt.Sprintf("workingset: node %d out of range [0,%d)", x, t.n))
	}
}

// Bound accumulates the working-set bound WS(σ) = Σ log2 T_i(σ_i) for a
// request sequence as it is recorded.
type Bound struct {
	tracker *Tracker
	total   float64
	count   int
}

// NewBound creates a Bound accumulator over n nodes.
func NewBound(n int) *Bound {
	return &Bound{tracker: NewTracker(n)}
}

// Tracker exposes the underlying tracker (shared clock).
func (b *Bound) Tracker() *Tracker { return b.tracker }

// Add records one request and returns its working-set number.
func (b *Bound) Add(u, v int) int {
	ws := b.tracker.Record(u, v)
	b.total += math.Log2(float64(ws))
	b.count++
	return ws
}

// Total returns WS(σ) for the requests recorded so far.
func (b *Bound) Total() float64 { return b.total }

// Count returns the number of requests recorded.
func (b *Bound) Count() int { return b.count }
