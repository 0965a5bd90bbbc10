package core

import (
	"errors"
	"fmt"
	"sort"

	"lsasg/internal/skipgraph"
)

// This file is the crash-failure path: fault injection (Crash) plus the
// decentralized repair that detection triggers. A crash marks the node dead
// in place — no leave-side protocol runs, every neighbour keeps a dangling
// reference — and the graph stays fully valid structurally; only routes that
// try to contact the dead peer fail (skipgraph.DeadRouteError). Repair is
// scoped exactly like a graceful leave: the dead node's ex-lists
// (skipgraph.AppendExListRefs) are the entire dirty set, and RepairBalanceIn
// restores the a-balance invariant over just those lists. No global
// coordination, matching Interlaced's decentralized churn stabilization and
// the Rainbow Skip Graph's local fault recovery.

// ErrCrashedNode is wrapped by RemoveNode for a crashed id. The step reports
// a dead endpoint as the op's miss instead (see Access).
var ErrCrashedNode = errors.New("core: crashed node")

// Crash marks the real node with the given id as crashed: it vanishes from
// the request-serving population without any repair, leaving its links —
// its neighbours' dangling references — untouched until a route detects it.
// Crashing an unknown id errors (wrapping ErrUnknownNode); crashing an
// already-dead node is a no-op, so Crash is idempotent.
func (d *DSG) Crash(id int64) error {
	n := d.NodeByID(id)
	if n == nil {
		return fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	if n.Dead() {
		return nil
	}
	d.g.Crash(n.Key())
	d.crashCount++
	return nil
}

// repairCrashed splices a detected dead node out of every list it occupied,
// restores vector distinctness among its surviving neighbours, and repairs
// a-balance over exactly the touched lists. The refs are anchored at
// surviving neighbours (AppendExListRefs), so the repair is as scoped as a
// graceful leave: the departure can only have merged same-bit runs around
// the vacated positions.
//
// The distinctness step is the one repair a graceful leave never needs: a
// corpse is exempt from the distinctness invariant (like a dummy), so it may
// be the only separator between two live nodes sharing a full membership
// prefix — its removal brings them adjacent at their top level, and they
// must extend their vectors until distinct again (localJoin's rule, run in
// reverse).
func (d *DSG) repairCrashed(n *skipgraph.Node) {
	sc := &d.scratch.repair
	sc.crash = skipgraph.AppendExListRefs(recycle(sc.crash), n)
	cands := d.liveRealNeighbours(n)
	d.g.Remove(n.Key())
	d.crashRepairCount++
	sc.crash = append(sc.crash, d.extendDistinct(cands)...)
	d.RepairBalanceIn(sc.crash, nil)
}

// RepairCrashedID repairs the crashed node with the given id and reports
// whether a repair ran. It is idempotent: an id that is absent (already
// repaired, or never existed) or alive is a no-op, so duplicate repair
// requests — the same failure detected by many routes — are safe.
func (d *DSG) RepairCrashedID(id int64) bool {
	n := d.NodeByID(id)
	if n == nil || !n.Dead() {
		return false
	}
	d.repairCrashed(n)
	return true
}

// CrashedIDs returns the ids of crashed nodes awaiting repair, ascending.
func (d *DSG) CrashedIDs() []int64 {
	var ids []int64
	for _, n := range d.g.DeadNodes() {
		ids = append(ids, n.ID())
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// CrashStats returns the cumulative crash counters: nodes crashed, dead
// peers detected (at route or transform time), and crash repairs completed.
func (d *DSG) CrashStats() (crashes, detections, repairs int) {
	return d.crashCount, d.crashDetectCount, d.crashRepairCount
}
