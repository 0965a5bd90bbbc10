// Package lsasg is a Go implementation of Locally Self-Adjusting Skip
// Graphs (Huq and Ghosh, ICDCS 2017): a distributed self-adjusting skip
// graph (DSG) that serves communication requests with the standard
// skip-graph routing and then locally and partially rebuilds the topology
// so that frequently communicating nodes drift together, while preserving
// O(log n) height (and therefore O(log n) worst-case routing) for every
// individual request.
//
// The entry point is Network:
//
//	nw, _ := lsasg.New(64)
//	res, _ := nw.Request(3, 41) // route 3 → 41, then self-adjust
//	fmt.Println(res.RouteDistance, res.ServiceCost)
//
// Repeated communication between the same (or nearby, in the working-set
// sense) pairs becomes cheap: after one request the pair is directly
// linked, and the amortized routing cost tracks the paper's working-set
// bound WS(σ) within a constant factor.
package lsasg

import (
	"fmt"
	"io"

	"lsasg/internal/core"
	"lsasg/internal/obs"
	"lsasg/internal/skipgraph"
	"lsasg/internal/workingset"
)

// Option configures a Network.
type Option func(*options)

type options struct {
	balance         int
	seed            int64
	checkInvariants bool
	exactMedian     bool
	trackWorkingSet bool
	parallelism     int
	batchSize       int
	shards          int
	rebalanceWindow int
	trace           bool
}

// WithBalance sets the a-balance parameter (≥ 2). Larger values reduce
// dummy-node overhead but loosen the per-level balance guarantee; the
// search-path bound is a·H. The default is 4.
func WithBalance(a int) Option {
	return func(o *options) { o.balance = a }
}

// WithSeed fixes the random seed (AMF skip lists, initial topology).
func WithSeed(seed int64) Option {
	return func(o *options) { o.seed = seed }
}

// WithInvariantChecks enables full structural verification after every
// request. Intended for tests; it is O(n·H) per request.
func WithInvariantChecks() Option {
	return func(o *options) { o.checkInvariants = true }
}

// WithExactMedian replaces the randomized AMF subroutine with an exact
// median (idealized O(log n)-round cost). Useful to isolate approximation
// effects in experiments.
func WithExactMedian() Option {
	return func(o *options) { o.exactMedian = true }
}

// WithoutWorkingSetTracking disables the built-in working-set bookkeeping
// (which costs O(edges) memory and BFS time per request).
func WithoutWorkingSetTracking() Option {
	return func(o *options) { o.trackWorkingSet = false }
}

// WithParallelism sets the number of routing workers Serve fans requests
// over (default 1). Nothing mutates the topology while a batch routes, so
// workers scale across cores without changing any result.
func WithParallelism(p int) Option {
	return func(o *options) { o.parallelism = p }
}

// WithBatchSize sets the number of requests Serve routes before applying
// their adjustments (default 32). Larger batches give the routing workers
// more to share but increase the adjustment lag requests observe.
func WithBatchSize(k int) Option {
	return func(o *options) { o.batchSize = k }
}

// WithShards sets the number of partitions a sharded network splits the key
// space across (NewSharded only; default 4). Each shard is an independent
// self-adjusting skip graph with its own adjuster, so aggregate adjustment
// throughput scales with the shard count.
func WithShards(s int) Option {
	return func(o *options) { o.shards = s }
}

// WithRebalanceWindow sets the sharded deterministic pipeline's window
// length in requests (NewSharded only; default 512): after every window the
// shard engines drain to a barrier where KV outcomes are assembled and the
// skew-driven rebalancer may migrate one key range. Smaller windows deliver
// ServeOps outcomes sooner (a window of 1 delivers every op's result before
// the next op dispatches — what a synchronous wire client needs) at the
// cost of more frequent barriers.
func WithRebalanceWindow(w int) Option {
	return func(o *options) { o.rebalanceWindow = w }
}

// WithTracing enables the observability layer (internal/obs): per-verb and
// per-stage latency histograms, retry-event counters, and a slowest-span
// exemplar ring, all threaded through the serving pipelines. The
// measurements are wall-clock and exempt from the deterministic-statistics
// contracts — enabling tracing never changes any Stats or ServeOps result.
// Read the tracer back with Network.Tracer / ShardedNetwork.Tracer.
func WithTracing() Option {
	return func(o *options) { o.trace = true }
}

// Result reports one served request.
type Result struct {
	// RouteDistance is d_S(σ): intermediate nodes on the routing path.
	RouteDistance int
	// RouteHops is RouteDistance + 1: link traversals source → destination.
	RouteHops int
	// TransformRounds is ρ: synchronous rounds of topology adaptation.
	TransformRounds int
	// ServiceCost is the paper's d_S(σ) + ρ + 1.
	ServiceCost int
	// DirectLevel is the level of the new size-2 list holding the pair.
	DirectLevel int
	// WorkingSetNumber is T_t(u, v) at request time (0 when tracking is
	// disabled): n for first-time pairs, small for recent communication.
	WorkingSetNumber int
	// Alpha is the highest level at which the pair shared a list before
	// the transformation.
	Alpha int
	// HeightAfter is the skip-graph height after the transformation.
	HeightAfter int
}

// Network is a self-adjusting skip-graph overlay of n nodes addressed
// 0..n-1. Methods are not safe for concurrent use; the paper's model
// serves requests sequentially. Serve is the concurrent entry point: it
// parallelizes routing internally (a batch routes before any of it adjusts)
// while keeping all adjustment serialized, but the Serve call itself must still
// not overlap other Network methods.
type Network struct {
	dsg *core.DSG
	ws  *workingset.Bound
	n   int

	parallelism int
	batchSize   int
	tracer      *obs.Tracer

	requests             int
	totalRouteDistance   int64
	totalTransformRounds int64
	maxRouteDistance     int
}

// New creates a Network over n ≥ 2 nodes.
func New(n int, opts ...Option) (*Network, error) {
	if n < 2 {
		return nil, fmt.Errorf("lsasg: need at least 2 nodes, got %d", n)
	}
	o := options{balance: 4, seed: 1, trackWorkingSet: true}
	for _, opt := range opts {
		opt(&o)
	}
	cfg := core.Config{A: o.balance, Seed: o.seed, CheckInvariants: o.checkInvariants}
	if o.exactMedian {
		cfg.Finder = core.ExactFinder{}
	}
	nw := &Network{dsg: core.New(n, cfg), n: n, parallelism: o.parallelism, batchSize: o.batchSize}
	if o.trace {
		nw.tracer = obs.NewTracer()
	}
	if o.trackWorkingSet {
		nw.ws = workingset.NewBound(n)
	}
	return nw, nil
}

// Tracer returns the observability tracer when the network was built with
// WithTracing, nil otherwise. A nil tracer is safe everywhere — every
// method no-ops on it.
func (nw *Network) Tracer() *obs.Tracer { return nw.tracer }

// N returns the number of (real) nodes.
func (nw *Network) N() int { return nw.n }

// Height returns the current skip-graph height.
func (nw *Network) Height() int { return nw.dsg.Graph().Height() }

// DummyCount returns the number of dummy (routing-only) nodes currently
// maintaining the a-balance property.
func (nw *Network) DummyCount() int { return nw.dsg.DummyCount() }

// Balance returns the a-balance parameter.
func (nw *Network) Balance() int { return nw.dsg.A() }

// Requests returns the number of requests served.
func (nw *Network) Requests() int { return nw.requests }

// Request serves a communication request from src to dst (distinct node
// indices in [0, N)): it routes in the current topology, then runs the DSG
// transformation that directly links the pair.
func (nw *Network) Request(src, dst int) (Result, error) {
	if err := nw.checkIndex(src); err != nil {
		return Result{}, err
	}
	if err := nw.checkIndex(dst); err != nil {
		return Result{}, err
	}
	if src == dst {
		return Result{}, fmt.Errorf("lsasg: source and destination are both %d", src)
	}
	wsNum := 0
	if nw.ws != nil {
		wsNum = nw.ws.Add(src, dst)
	}
	r, err := nw.dsg.Serve(int64(src), int64(dst))
	if err != nil {
		return Result{}, wrapErr(err)
	}
	nw.requests++
	nw.totalRouteDistance += int64(r.RouteDistance)
	nw.totalTransformRounds += int64(r.TransformRounds)
	if r.RouteDistance > nw.maxRouteDistance {
		nw.maxRouteDistance = r.RouteDistance
	}
	return Result{
		RouteDistance:    r.RouteDistance,
		RouteHops:        r.RouteHops,
		TransformRounds:  r.TransformRounds,
		ServiceCost:      r.ServiceCost(),
		DirectLevel:      r.DirectLevel,
		WorkingSetNumber: wsNum,
		Alpha:            r.Alpha,
		HeightAfter:      r.HeightAfter,
	}, nil
}

// Distance returns the current routing distance d_S(src, dst) without
// adjusting the topology.
func (nw *Network) Distance(src, dst int) (int, error) {
	if err := nw.checkIndex(src); err != nil {
		return 0, err
	}
	if err := nw.checkIndex(dst); err != nil {
		return 0, err
	}
	route, err := nw.dsg.Graph().RouteKeys(skipgraph.KeyOf(int64(src)), skipgraph.KeyOf(int64(dst)))
	if err != nil {
		return 0, wrapErr(err)
	}
	return route.Distance(), nil
}

// DirectlyLinked reports whether src and dst currently share a linked list
// of size two (a direct link) and at which level.
func (nw *Network) DirectlyLinked(src, dst int) (bool, int) {
	u := nw.dsg.NodeByID(int64(src))
	v := nw.dsg.NodeByID(int64(dst))
	if u == nil || v == nil {
		return false, 0
	}
	return nw.dsg.Graph().DirectlyLinked(u, v)
}

// Stats summarizes the served request sequence. The sharding fields at the
// bottom stay zero for an unsharded Network, which never migrates or
// rebalances.
type Stats struct {
	Requests             int
	MeanRouteDistance    float64
	MaxRouteDistance     int
	TotalTransformRounds int64
	// WorkingSetBound is WS(σ) = Σ log2 T_i, the paper's lower bound on
	// any conforming algorithm's total routing cost (0 when tracking is
	// disabled).
	WorkingSetBound float64
	Height          int
	DummyCount      int

	// Rebalances counts skew-driven migrations the sharded rebalancer
	// executed; MigratedKeys counts the keys those migrations moved between
	// shards. Both are 0 for an unsharded Network.
	Rebalances   int64
	MigratedKeys int64
}

// Stats returns aggregate statistics for the requests served so far.
func (nw *Network) Stats() Stats {
	s := Stats{
		Requests:             nw.requests,
		MaxRouteDistance:     nw.maxRouteDistance,
		TotalTransformRounds: nw.totalTransformRounds,
		Height:               nw.dsg.Graph().Height(),
		DummyCount:           nw.dsg.DummyCount(),
	}
	if nw.requests > 0 {
		s.MeanRouteDistance = float64(nw.totalRouteDistance) / float64(nw.requests)
	}
	if nw.ws != nil {
		s.WorkingSetBound = nw.ws.Total()
	}
	return s
}

// WorkingSetNumber returns T_t(u, v) for the next request between u and v
// (n for first-time pairs). It returns 0 when tracking is disabled.
func (nw *Network) WorkingSetNumber(u, v int) int {
	if nw.ws == nil {
		return 0
	}
	return nw.ws.Tracker().WorkingSetNumber(u, v)
}

// Verify checks all structural invariants of the current topology.
func (nw *Network) Verify() error { return nw.dsg.Graph().Verify() }

// AddNode joins a new node and returns its index (standard skip-graph
// join; §IV-G). Note that working-set tracking is sized at construction,
// so networks that grow should disable it.
func (nw *Network) AddNode() (int, error) {
	if nw.ws != nil {
		return 0, fmt.Errorf("lsasg: AddNode requires WithoutWorkingSetTracking")
	}
	id := int64(nw.n)
	if _, err := nw.dsg.Add(id); err != nil {
		return 0, wrapErr(err)
	}
	nw.n++
	return int(id), nil
}

// RemoveNode removes a node (standard skip-graph leave; §IV-G). The index
// becomes unroutable; other indices are unaffected.
func (nw *Network) RemoveNode(idx int) error {
	if nw.ws != nil {
		return fmt.Errorf("lsasg: RemoveNode requires WithoutWorkingSetTracking")
	}
	return wrapErr(nw.dsg.RemoveNode(int64(idx)))
}

// Crash injects a crash failure: the node fails in place with dangling
// neighbour references, exactly as if its process died. Requests that run
// into the corpse report ErrDeadNode until a repair splices it out; the
// data plane repairs crashed keys on Put and Delete. Like every other
// method, Crash must not run concurrently with a Serve call.
func (nw *Network) Crash(idx int) error {
	if err := nw.checkIndex(idx); err != nil {
		return err
	}
	return wrapErr(nw.dsg.Crash(int64(idx)))
}

// RenderTopology writes the tree-of-linked-lists view of the current
// topology (the paper's Fig 1(b) layout) to w.
func (nw *Network) RenderTopology(w io.Writer) {
	tree := nw.dsg.Graph().TreeView()
	fmt.Fprint(w, tree.RenderLevels(nil, nil))
}

func (nw *Network) checkIndex(i int) error { return checkIndex(i, nw.n) }

// checkIndex validates a node index against the key space [0, n).
func checkIndex(i, n int) error {
	if i < 0 || i >= n {
		return fmt.Errorf("%w: node index %d not in [0, %d)", ErrOutOfRange, i, n)
	}
	return nil
}
