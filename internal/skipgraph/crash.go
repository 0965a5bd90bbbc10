package skipgraph

import (
	"errors"
	"fmt"
)

// This file is the crash-failure model: a node can vanish without running the
// leave-side protocol. Crash marks the node dead but leaves every link and
// membership bit exactly as they were — its neighbours keep dangling
// references to an unresponsive peer, the way a real fleet loses a machine.
// Detection happens at route time: the first attempt to HOP onto a dead node
// fails with a DeadRouteError naming it, which is the failure detector the
// repair layers (internal/core, internal/shard) act on. Reading a dead
// neighbour's key costs nothing — neighbour tables cache keys — so a dead
// node that merely overshoots the destination is never "contacted" and never
// detected by that route, matching the Rainbow Skip Graph's contact-driven
// failure discovery.

// ErrDeadNode is the sentinel every DeadRouteError wraps; match it with
// errors.Is to tell "this route hit a crashed peer" — retryable after a
// repair — apart from structural routing failures, which are not.
var ErrDeadNode = errors.New("skipgraph: dead node")

// DeadRouteError reports that routing tried to contact a crashed node. Node
// is the dead peer (an endpoint, or the first dead hop on the path); extract
// it with errors.As to drive a targeted repair.
type DeadRouteError struct {
	Node *Node
}

// Error implements error.
func (e *DeadRouteError) Error() string {
	return fmt.Sprintf("skipgraph: dead node %v on route", e.Node.key)
}

// Unwrap makes errors.Is(err, ErrDeadNode) work.
func (e *DeadRouteError) Unwrap() error { return ErrDeadNode }

// Crash marks the node with the given key dead without touching any link or
// membership bit: the node stays in every list it occupied, unresponsive.
// It returns the node, or nil when the key is absent. Crashing a dummy is
// rejected (dummies are logical, not machines) and crashing a dead node is a
// no-op, so Crash is idempotent.
func (g *Graph) Crash(key Key) *Node {
	n := g.ByKey(key)
	if n == nil {
		return nil
	}
	if n.dummy {
		panic(fmt.Sprintf("skipgraph: cannot crash dummy %v", key))
	}
	n.dead = true
	return n
}
