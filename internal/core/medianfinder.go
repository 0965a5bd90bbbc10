// Package core implements the paper's primary contribution: the Dynamic
// Skip Graphs (DSG) self-adjusting algorithm (§IV). Upon a communication
// request (u, v), DSG routes with the standard skip-graph routing and then
// locally and partially transforms the topology so that u and v share a
// linked list of size two, while preserving the working-set property for
// non-communicating groups and keeping the height O(log n).
//
// The algorithm state per node is exactly the paper's: a membership vector,
// a timestamp T and a group-id G per level, an is-dominating-group bit D
// per level, and a group-base B — O(log n) words per node. The vector is the
// skip-graph node's own; the rest (nodeState) hangs off the node, in
// skipgraph.Node.Ext, so whatever walks the graph reaches a node's state
// without a lookup, and the state leaves with the node. A dummy's node, its
// state and, for all but the deepest, its group-ids and links are one
// allocation (dummyRecord).
//
// # The three phases of a transformation
//
// A transformation rebuilds the sub-skip-graph above alpha — the highest
// level at which u and v share a list — in three phases (splits.go,
// balance.go), and their order is part of the algorithm:
//
//  1. Split. Level by level, every list with at least two real members
//     finds an approximate median priority and hands each real member its
//     next membership bit (§IV-C). No dummy is created here.
//  2. Balance, bottom-up. The lists just formed are revisited deepest
//     first; each is made a-balanced once, over its complete membership —
//     its sublists' members, their dummies included, merged by key — by
//     breaking every over-long same-side run with a dummy in the sibling
//     subgraph (§IV-F).
//  3. Pair. The list holding u and v alone splits last: whether the pair
//     becomes singleton at once or first steps aside from a dummy depends
//     on what phase 2 placed in that list.
//
// Balancing inside phase 1, list by list as each splits, looks equivalent
// and is not. A dummy created for a list at level d' is, by its prefix, a
// member of every ancestor list below d', on its left neighbour's side; so
// a list balanced before its descendants have created their dummies is
// lengthened afterwards, one level after another, and the scoped repair
// that follows the transformation ends up rebuilding most of the region
// (it used to insert 2–3× as many dummies as the transformation itself, and
// still left an invalid state after a few ops in a thousand). Bottom-up, a
// list is balanced when everything beneath it is final, and what it adds
// reaches its sublists only as boundaries, which shorten runs and never
// lengthen them: the transformation leaves no violation at or above alpha
// (TestTransformLeavesRegionBalanced), so the scoped repair is not given
// the rebuilt lists to scan at all — only their dummies, to garbage-collect
// — and is left with the knock-ons below alpha, where a new dummy joins
// lists the transformation did not rebuild.
//
// # Scratch arena
//
// Adaptation is local, and so is its memory: everything an adjustment needs
// — the members of the list being transformed and their snapshot of the old
// state, the lists the splits form, the scoped repair's dirty sets,
// violation buffers and garbage-collection frontiers — lives in one arena
// the DSG owns (scratch.go) and reuses from operation to operation,
// alongside the graph's own relink buffer and run table and the median
// finder's buffers. The arena is sized by the region an
// operation touches, never by n. The dummies are recycled too: under §IV-F
// every transformation destroys the dummies of the region it rebuilds and
// creates others, so a dummy leaving the graph is retired, and its record
// (node, state, and the link and group-id storage they grew) serves a later
// one. A steady-state adjustment allocates nothing (TestAdjustAllocBudget).
//
// The ownership rule that makes this safe: a DSG has a single writer, and
// arena memory belongs to the operation in progress. Nothing arena-backed
// may be retained by a skipgraph.Node, a nodeState, a ListRef that outlives
// the operation (d.pending and d.pendingDummies, the one dirty record that
// does, have their own buffers), or an OpResult or AdjustResult; whatever
// must survive is copied out. Each operation clears the node and state
// pointers it parked in the arena before returning, so the arena never
// keeps a removed node alive.
//
// Records obey an operation boundary. Inside an operation, arena buffers,
// d.pending and d.pendingDummies and the route path may still hold a dummy
// that has left the graph, and Graph.Contains tells it from a present node
// by identity — so a record retired during an operation (d.retired) joins
// the free list (d.free) only when the operation ends, at the end of
// AdjustAccess, when none of those can reach it (a membership change made
// outside the step — a bare Add, RemoveNode or crash repair — leaves what
// it retired to the next one), and newDummy takes records from the free
// list alone (TestRecycledDummiesAreUnreachable). A dummy
// pointer is therefore meaningless after the operation that removed it:
// nothing may hold one across operations. Real nodes and their states are
// never reused.
package core

import (
	"math/rand"
	"sort"

	"lsasg/internal/amf"
)

// MedianResult is what a split step needs from a median-finding run: the
// approximate median itself, the synchronous-round cost, and the reusable
// count/broadcast primitives backed by the balanced skip list the run built.
type MedianResult struct {
	Median amf.Value
	Rounds int
	// CountRounds is the round cost of one distributed count over the list.
	CountRounds int
	// BroadcastRounds is the round cost of one list-wide broadcast.
	BroadcastRounds int
}

// MedianFinder abstracts the approximate-median subroutine so tests can
// substitute exact or scripted medians (e.g. to replay the paper's Fig 4).
type MedianFinder interface {
	FindMedian(values []amf.Value) MedianResult
}

// AMFFinder runs the paper's randomized AMF algorithm (§V). It keeps the
// run's buffers between calls, so one finder serves one goroutine.
type AMFFinder struct {
	A   int
	Rng *rand.Rand

	scratch amf.Scratch
}

// FindMedian implements MedianFinder.
func (f *AMFFinder) FindMedian(values []amf.Value) MedianResult {
	res := f.scratch.Find(values, f.A, f.Rng)
	return MedianResult{
		Median: res.Median,
		Rounds: res.Rounds,
		// Counts of |gs|, L_low, L_high reuse the same skip list, so the
		// per-count cost equals one distributed sum over it.
		CountRounds:     res.CountRounds(),
		BroadcastRounds: res.BroadcastRounds(),
	}
}

// ExactFinder returns the true median (lower median) with an idealized
// logarithmic round cost. Used in tests to remove approximation noise.
type ExactFinder struct{}

// FindMedian implements MedianFinder.
func (ExactFinder) FindMedian(values []amf.Value) MedianResult {
	sorted := append([]amf.Value(nil), values...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })
	m := sorted[(len(sorted)-1)/2]
	r := logCeil(len(values)) + 1
	return MedianResult{Median: m, Rounds: r, CountRounds: r, BroadcastRounds: r}
}

// ScriptedFinder replays a fixed sequence of medians, one per FindMedian
// call in transformation order, for reconstructing the paper's worked
// example (Fig 4, which "assumes" specific median values). After the script
// is exhausted it falls back to the exact median.
type ScriptedFinder struct {
	Script []amf.Value
	next   int
}

// FindMedian implements MedianFinder.
func (f *ScriptedFinder) FindMedian(values []amf.Value) MedianResult {
	if f.next < len(f.Script) {
		m := f.Script[f.next]
		f.next++
		r := logCeil(len(values)) + 1
		return MedianResult{Median: m, Rounds: r, CountRounds: r, BroadcastRounds: r}
	}
	return ExactFinder{}.FindMedian(values)
}

func logCeil(n int) int {
	l := 0
	for v := 1; v < n; v <<= 1 {
		l++
	}
	return l
}
