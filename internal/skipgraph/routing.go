package skipgraph

import (
	"errors"
	"fmt"
)

// ErrUnknownKey is wrapped by RouteKeys when an endpoint key is not in the
// graph. The public API matches it (errors.Is) to tell a route to a deleted
// or removed key — a per-op miss — apart from structural routing failures.
var ErrUnknownKey = errors.New("skipgraph: unknown key")

// RouteResult describes one standard skip-graph routing (paper Appendix B).
type RouteResult struct {
	// Path holds the distinct nodes visited, source first and destination
	// last. Level drops do not add entries.
	Path []*Node
	// LevelDrops counts how many times routing dropped a level.
	LevelDrops int
}

// Distance returns the paper's d_S(σ): the number of intermediate nodes on
// the communication path (excluding source and destination).
func (r RouteResult) Distance() int {
	if len(r.Path) < 2 {
		return 0
	}
	return len(r.Path) - 2
}

// Hops returns the number of link traversals (d_S(σ) + 1 for distinct
// endpoints).
func (r RouteResult) Hops() int {
	if len(r.Path) < 1 {
		return 0
	}
	return len(r.Path) - 1
}

// Route performs the standard skip-graph routing from src to dst: starting
// at the source's top level, move toward the destination while the next
// node does not overshoot, otherwise drop one level (Appendix B).
//
// Crashed nodes fail the route at first contact: a dead endpoint, or a hop
// onto a dead intermediate, returns a DeadRouteError naming the peer (the
// failure detector). Key comparisons against a dead neighbour are free —
// neighbour tables cache keys — so only an actual hop detects.
func (g *Graph) Route(src, dst *Node) (RouteResult, error) { return g.route(nil, src, dst) }

// route is Route appending the path to buf[:0].
func (g *Graph) route(buf []*Node, src, dst *Node) (RouteResult, error) {
	if src == nil || dst == nil {
		return RouteResult{}, fmt.Errorf("skipgraph: route endpoints must be non-nil")
	}
	if src.dead {
		return RouteResult{}, &DeadRouteError{Node: src}
	}
	if dst.dead {
		return RouteResult{}, &DeadRouteError{Node: dst}
	}
	res := RouteResult{Path: append(buf[:0], src)}
	if src == dst {
		return res, nil
	}
	right := src.key.Less(dst.key)
	cur := src
	level := cur.MaxLinkedLevel()
	for cur != dst {
		var next *Node
		if right {
			next = cur.Next(level)
			if next != nil && !dst.key.Less(next.key) {
				if next.dead {
					return res, &DeadRouteError{Node: next}
				}
				cur = next
				res.Path = append(res.Path, cur)
				// Routing may ascend back to the new node's top level; the
				// classic description keeps the level, which we follow.
				continue
			}
		} else {
			next = cur.Prev(level)
			if next != nil && !next.key.Less(dst.key) {
				if next.dead {
					return res, &DeadRouteError{Node: next}
				}
				cur = next
				res.Path = append(res.Path, cur)
				continue
			}
		}
		if level == 0 {
			return res, fmt.Errorf("skipgraph: routing stuck at %v targeting %v", cur.key, dst.key)
		}
		level--
		res.LevelDrops++
	}
	return res, nil
}

// RouteKeys routes between the nodes with the given keys.
func (g *Graph) RouteKeys(src, dst Key) (RouteResult, error) { return g.RouteKeysInto(nil, src, dst) }

// RouteKeysInto is RouteKeys reusing buf's storage for the path: the
// result's Path is appended to buf[:0], so it may share buf's array.
func (g *Graph) RouteKeysInto(buf []*Node, src, dst Key) (RouteResult, error) {
	s, d := g.ByKey(src), g.ByKey(dst)
	if s == nil {
		return RouteResult{}, fmt.Errorf("%w: source %v", ErrUnknownKey, src)
	}
	if d == nil {
		return RouteResult{}, fmt.Errorf("%w: destination %v", ErrUnknownKey, dst)
	}
	return g.route(buf, s, d)
}

// DirectlyLinked reports whether u and v share a linked list of size exactly
// two at some level, and returns the lowest such level. This is the paper's
// post-transformation guarantee for a communicating pair.
func (g *Graph) DirectlyLinked(u, v *Node) (bool, int) {
	for level := 1; level <= u.MaxLinkedLevel(); level++ {
		uPrev, uNext := u.Prev(level), u.Next(level)
		if (uNext == v && uPrev == nil && v.Next(level) == nil) ||
			(uPrev == v && uNext == nil && v.Prev(level) == nil) {
			return true, level
		}
	}
	return false, 0
}
