package serve

import "lsasg/internal/skipgraph"

// This file is the membership-migration surface used by the sharded service
// (internal/shard): a rebalancer moves a contiguous key range between two
// engines' graphs as a tracked leave/join batch at an engine-idle window
// barrier. Joins are skipgraph.Entry records so a migrated key arrives with
// its value and version intact.

// ApplyMigrationBatch applies joins (with carried value records) then
// leaves directly to the live graph. A crashed key cannot run the leave
// protocol, so it leaves through the crash repair. It requires an idle engine
// (no Serve in flight). Failing entries are skipped (the rest of the batch
// still applies) and the first error is returned.
func (e *Engine) ApplyMigrationBatch(joins []skipgraph.Entry, leaves []int64) error {
	if err := e.acquire("ApplyMigrationBatch"); err != nil {
		return err
	}
	defer e.release()

	var firstErr error
	for _, en := range joins {
		if err := e.dsg.Restore(en); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, id := range leaves {
		if e.dsg.RepairCrashedID(id) {
			continue
		}
		if err := e.dsg.RemoveNode(id); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	e.epoch++
	return firstErr
}
