package skipgraph

// This file is the value side of the KV data plane: every real node can
// carry one versioned value record. Values are immutable per version —
// SetValue swaps slices, never rewrites bytes — so a read result stays
// valid after later writes to the same key.

// Entry is one key's value record as read out of a graph: scan results
// (HasValue always true there) and migration payloads (HasValue false for a
// key that exists but was never written).
type Entry struct {
	ID       int64
	Value    []byte
	Version  int64
	HasValue bool
}

// SetValue stores a value record on n with the given version. The value
// slice is stored as-is and must not be mutated by the caller afterwards.
func (g *Graph) SetValue(n *Node, v []byte, ver int64) {
	n.val, n.ver, n.hasVal = v, ver, true
}

// GetValue reads the value record of the node with key k from the live
// graph. ok is false when the key is absent, a dummy, crashed (crash-stop:
// the data is unreachable until repair), or holds no value.
func (g *Graph) GetValue(k Key) (val []byte, ver int64, ok bool) {
	n := g.ByKey(k)
	if n == nil || n.dummy || n.dead || !n.hasVal {
		return nil, 0, false
	}
	return n.val, n.ver, true
}

// ScanFrom walks the level-0 run of the live graph from the first real key
// ≥ start, collecting up to limit value-bearing entries in ascending key
// order. Dummies, crashed nodes, and keys without values are skipped (they
// occupy the run but hold no readable data). The result is allocated once,
// at the first match, for as many entries as the limit and the graph allow;
// a scan that matches nothing returns nil.
func (g *Graph) ScanFrom(start Key, limit int) []Entry {
	if limit <= 0 {
		return nil
	}
	var out []Entry
	for n := g.from(start); n != nil && len(out) < limit; n = n.Next(0) {
		if !n.dummy && !n.dead && n.hasVal {
			if out == nil {
				out = make([]Entry, 0, min(limit, g.n))
			}
			out = append(out, Entry{ID: n.key.Primary, Value: n.val, Version: n.ver, HasValue: true})
		}
	}
	return out
}

// RealEntriesInRange returns the full records — id, value, version — of the
// real nodes whose key lies in [lo, hi), ascending, which is what lets shard
// migration move values with their keys. Nodes without values appear with
// HasValue false (the key itself still migrates); dead nodes appear too.
// Dummies are excluded: they are balance artifacts of the graph they live
// in, and the destination shard's own repair re-creates whatever padding its
// lists need (§IV-F).
func (g *Graph) RealEntriesInRange(lo, hi Key) []Entry {
	var out []Entry
	for n := g.from(lo); n != nil && n.key.Less(hi); n = n.Next(0) {
		if !n.dummy {
			out = append(out, Entry{ID: n.key.Primary, Value: n.val, Version: n.ver, HasValue: n.hasVal})
		}
	}
	return out
}
