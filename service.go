package lsasg

import "context"

// Service is the serving contract of this package: one surface for
// topology queries, the synchronous KV data plane, membership and fault
// injection, and the streamed ServeOps. Network implements it
// for every shard count; code written against Service — a benchmark driver,
// an example, or the wire daemon in cmd/dsgserve — fronts a single graph
// and a partitioned one unchanged.
//
// The concurrency contract is Network's: methods must not be called
// concurrently with each other, and a ServeOps producer must pair every
// channel send with the call's ctx. The concurrency lives inside: a
// partitioned service serves a ServeOps window's shards side by side, and
// finishes each op's adjustment behind Do's answer while the next op routes
// on another shard.
type Service interface {
	// N returns the size of the key space [0, N).
	N() int
	// Height returns the current skip-graph height (the tallest shard's,
	// when partitioned).
	Height() int
	// Stats returns aggregate statistics for the requests served so far.
	Stats() Stats
	// Verify runs the full invariant validator over the current topology.
	Verify() error
	// Gauges returns Stats' books without waiting for an adjustment still
	// running behind an answer.
	Gauges() Stats

	// Do serves one op envelope synchronously — a one-op window of the
	// driver behind ServeOps — and returns its outcome; a partitioned service
	// answers once the op is routed and adjusts behind the answer. A route
	// whose endpoint is gone or dead is counted and returns ErrUnknownKey or
	// ErrDeadNode; a dead node it only passes is repaired and the route is
	// served.
	Do(op Op) (OpResult, error)
	// Get reads key's value as an access from src, adapting the topology
	// like a communication request.
	Get(src, key int) (value []byte, version int64, found bool, err error)
	// Put writes value to key as an access from src; an absent key joins
	// the topology.
	Put(src, key int, value []byte) (version int64, existed bool, err error)
	// Delete removes key from the keyspace (a tracked leave).
	Delete(src, key int) (existed bool, err error)
	// Scan reads up to limit value-bearing entries in ascending key order
	// starting at the first key ≥ start, requested by origin src.
	Scan(src, start, limit int) ([]KV, error)

	// AddNode joins a new node at index N; RemoveNode makes a node leave;
	// Crash fails one in place until a route passing it, or a Put or Delete
	// of its key, repairs it.
	AddNode() (int, error)
	RemoveNode(idx int) error
	Crash(idx int) error

	// ServeOps consumes op envelopes — routes and KV operations — until the
	// channel closes (or ctx is cancelled) and returns what a loop over Do
	// returns; onResult, when non-nil, observes every op's outcome in
	// request order.
	ServeOps(ctx context.Context, ops <-chan Op, onResult func(OpResult)) (Stats, error)
}

var _ Service = (*Network)(nil)
