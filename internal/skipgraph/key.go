// Package skipgraph implements the skip-graph substrate from Aspnes and
// Shah ("Skip Graphs", SODA 2003) as used by the paper: nodes ordered by key
// at level 0, recursively split into sublists by membership-vector bits, with
// the standard top-down routing algorithm (paper Appendix B). The package
// also provides the binary-tree-of-linked-lists view the paper uses for
// exposition (Fig 1), invariant verification, a-balance checking, and node
// join/leave (§IV-G).
package skipgraph

import "fmt"

// Key is a totally ordered node key. Minor exists so that logical "dummy"
// nodes (§IV-F) can be placed between two real keys while keeping the base
// list sorted: real nodes always use Minor == 0 and dummies pick a non-zero
// Minor adjacent to a real neighbour.
type Key struct {
	Primary int64
	Minor   int32
}

// MinorSpace bounds a key's Minor: dummies under one primary take minors in
// (0, MinorSpace).
const MinorSpace = 1 << 30

// KeyOf returns the real-node key for primary p.
func KeyOf(p int64) Key { return Key{Primary: p} }

// Less reports whether k orders strictly before o.
func (k Key) Less(o Key) bool {
	if k.Primary != o.Primary {
		return k.Primary < o.Primary
	}
	return k.Minor < o.Minor
}

// Compare returns -1, 0, or 1 as k is less than, equal to, or greater than o.
func (k Key) Compare(o Key) int {
	switch {
	case k.Less(o):
		return -1
	case o.Less(k):
		return 1
	default:
		return 0
	}
}

// String renders the key; dummies render with a "+minor" suffix.
func (k Key) String() string {
	if k.Minor == 0 {
		return fmt.Sprintf("%d", k.Primary)
	}
	return fmt.Sprintf("%d+%d", k.Primary, k.Minor)
}
