package shard

import (
	"errors"
	"fmt"

	"lsasg/internal/core"
	"lsasg/internal/skipgraph"
)

// This file is the synchronous op surface: one op at a time against an
// otherwise-idle service, mirroring the Serve dispatcher's leg
// decomposition (same splitLegs rule, same boundary access sources) so a
// synchronous Get adapts the topology exactly like a pipelined one. Every
// op requires the involved engines to be idle (no Serve in flight): scans
// read the live graphs, the rest mutate them.

// Apply applies one op synchronously and returns its assembled outcome.
// Point ops mutate through the destination shard's engine; cross-shard
// point ops additionally adapt the origin shard along src→exit-boundary.
// Scans stitch the shards' graphs in key order, stopping as soon as the
// limit fills — the exact equivalent of the pipeline's fanned scan.
func (s *Service) Apply(op core.Op) (Outcome, error) {
	if err := s.checkOp(op); err != nil {
		return Outcome{}, err
	}
	dir := s.dir.Load()
	switch op.Kind {
	case core.OpScan:
		return Outcome{Op: op, Entries: s.scanExact(dir, op.Dst, op.Limit)}, nil
	case core.OpRoute:
		legs, n, _ := dir.splitLegs(op.Src, op.Dst)
		for i := 0; i < n; i++ {
			if _, err := s.shards[legs[i].shard].eng.ApplyOpIdle(core.RouteOp(legs[i].src, legs[i].dst)); err != nil {
				return Outcome{Op: op}, err
			}
		}
		return Outcome{Op: op}, nil
	}
	// Point op: origin-side access leg first (tolerated — the boundary key
	// may have been deleted), then the op itself on the destination shard.
	si, di := dir.ShardOf(op.Src), dir.ShardOf(op.Dst)
	kv := op
	if si != di {
		higher := op.Dst > op.Src
		if exit := dir.exitKey(si, higher); exit != op.Src {
			if _, err := s.shards[si].eng.ApplyOpIdle(core.RouteOp(op.Src, exit)); err != nil &&
				!errors.Is(err, core.ErrUnknownNode) && !errors.Is(err, core.ErrCrashedNode) {
				return Outcome{Op: op}, fmt.Errorf("shard: origin leg of %s %d→%d: %w", op.Kind, op.Src, op.Dst, err)
			}
		}
		kv.Src = dir.entryKey(di, higher)
	}
	res, err := s.shards[di].eng.ApplyOpIdle(kv)
	if err != nil {
		return Outcome{Op: op}, err
	}
	return Outcome{
		Op:      op,
		Found:   res.Found,
		Value:   res.Value,
		Version: res.Version,
		Existed: res.Existed,
	}, nil
}

// scanExact walks the shards owning [start, n) in directory order, reading
// each shard's graph, until limit entries are collected. Shard order is key
// order, so the stitched result is globally sorted.
func (s *Service) scanExact(dir *Directory, start int64, limit int) []skipgraph.Entry {
	if limit <= 0 {
		limit = 1
	}
	var out []skipgraph.Entry
	for i := dir.ShardOf(start); i < dir.Shards() && len(out) < limit; i++ {
		lo, _ := dir.Range(i)
		from := start
		if lo > from {
			from = lo
		}
		out = append(out, s.shards[i].dsg.Graph().ScanFrom(skipgraph.KeyOf(from), limit-len(out))...)
	}
	return out
}
