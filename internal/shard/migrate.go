package shard

import (
	"fmt"

	"lsasg/internal/skipgraph"
)

// executeMigration runs one planned migration at a window barrier, with
// every shard settled, in this order:
//
//  1. join the range into the destination shard,
//  2. publish the new directory epoch,
//  3. leave the range from the source shard,
//
// so every directory value ever observable names a shard whose graph holds
// the key, and a failure at any step leaves each key with at least one
// owner. The moved records are read off the source shard's graph as full
// entries — id, value, version — so a key's data and its per-key version
// monotonicity survive the move. A crashed key still in the range leaves with
// it and arrives nowhere: its record was lost with it (crash-stop), and a
// join would bring it back alive holding that record.
func (s *Service) executeMigration(dir *Directory, plan migrationPlan) error {
	entries := s.shards[plan.From].dsg.Graph().RealEntriesInRange(
		skipgraph.KeyOf(plan.Lo), skipgraph.KeyOf(plan.Hi))
	if len(entries) == 0 {
		return nil
	}
	ids := make([]int64, len(entries))
	joins := entries[:0]
	for i, e := range entries {
		ids[i] = e.ID
		if s.live[e.ID] {
			joins = append(joins, e)
		}
	}
	b, start := plan.boundaryAfter()
	next, err := dir.withBoundary(b, start)
	if err != nil {
		return err
	}
	if err := s.shards[plan.To].applyBatch(joins, nil); err != nil {
		return fmt.Errorf("shard: migrating %d keys into shard %d: %w", len(joins), plan.To, err)
	}
	s.dir.Store(next)
	if err := s.shards[plan.From].applyBatch(nil, ids); err != nil {
		return fmt.Errorf("shard: retiring %d keys from shard %d: %w", len(ids), plan.From, err)
	}
	s.totals.Rebalances++
	s.totals.MovedKeys += int64(len(joins))
	return nil
}

// applyBatch applies one membership batch to the shard's live graph: joins
// first, each arriving as a skipgraph.Entry with its value and version
// intact, then leaves. A crashed key cannot run the leave protocol, so it
// leaves through the crash repair. Failing entries are skipped (the rest of
// the batch still applies) and the first error is returned. The shard must
// be settled.
func (sl *slot) applyBatch(joins []skipgraph.Entry, leaves []int64) error {
	var firstErr error
	for _, en := range joins {
		if err := sl.dsg.Restore(en); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, id := range leaves {
		if sl.dsg.RepairCrashedID(id) {
			continue
		}
		if err := sl.dsg.RemoveNode(id); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	sl.epoch++
	sl.publish()
	return firstErr
}
