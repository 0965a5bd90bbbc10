package skipgraph

import "math"

// This file is the range-extraction side of shard migration
// (internal/shard): a rebalancer moves a contiguous key range from one
// shard's graph to another via tracked leave/join batches, and needs the
// exact membership of that range as it exists in the live graph.

// RealKeysInRange returns the primary keys of the real (non-dummy) nodes
// whose key lies in [lo, hi), in ascending order. Dummies are excluded: they
// are balance artifacts of the graph they live in and are never migrated —
// the destination shard's own repair re-creates whatever padding its lists
// need (§IV-F).
func (g *Graph) RealKeysInRange(lo, hi Key) []int64 {
	var keys []int64
	for n := g.from(lo); n != nil && n.key.Less(hi); n = n.Next(0) {
		if !n.dummy {
			keys = append(keys, n.key.Primary)
		}
	}
	return keys
}

// RealKeyBounds returns the smallest and largest real-node primary keys in
// the graph. ok is false when the graph holds no real nodes.
func (g *Graph) RealKeyBounds() (min, max int64, ok bool) {
	for n := range g.All() {
		if !n.dummy {
			min = n.key.Primary
			ok = true
			break
		}
	}
	if !ok {
		return 0, 0, false
	}
	// The last node is the one before a key no node can have.
	for n := g.before(Key{Primary: math.MaxInt64, Minor: MinorSpace}); n != nil; n = n.Prev(0) {
		if !n.dummy {
			max = n.key.Primary
			break
		}
	}
	return min, max, true
}
