package skipgraph

import "math"

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
