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
	"errors"
	"fmt"
	"io"

	"lsasg/internal/obs"
	"lsasg/internal/shard"
	"lsasg/internal/workingset"
)

// Option configures a Network.
type Option func(*options)

type options struct {
	balance         int
	seed            int64
	shards          int
	rebalanceWindow int
	trace           bool
}

// WithBalance sets the a-balance parameter (≥ 2). Larger values reduce
// dummy-node overhead but loosen the per-level balance guarantee; the
// documented search-path target is a·H, currently exceeded (see Network).
// The default is 4.
func WithBalance(a int) Option {
	return func(o *options) { o.balance = a }
}

// WithSeed fixes the random seed (AMF skip lists, initial topology).
func WithSeed(seed int64) Option {
	return func(o *options) { o.seed = seed }
}

// WithParallelism and WithBatchSize do nothing: owed to the frozen harness,
// benchmark/layers.go:78; the next benchmark PR deletes the mention and
// these with it.
func WithParallelism(int) Option { return func(*options) {} }
func WithBatchSize(int) Option   { return func(*options) {} }

// WithShards sets the number of partitions the key space splits across
// (default: 1 for New, 4 for NewSharded). Each shard is an independent
// self-adjusting skip graph with its own adjuster, so aggregate adjustment
// throughput scales with the shard count.
func WithShards(s int) Option {
	return func(o *options) { o.shards = s }
}

// WithRebalanceWindow sets the load window's length in requests (default
// 512): every op — streamed or synchronous — counts its endpoints into the
// window, and once it is full the skew-driven rebalancer may migrate one key
// range at that op's barrier. On a sharded network ServeOps also serves a
// window's ops together, the shards side by side, and delivers their
// outcomes once the window has been served, so smaller windows deliver
// outcomes sooner at the cost of more frequent barriers; an unsharded
// network, which has nothing to run side by side, delivers after every op
// whatever the window. Do always answers after its one op — on a sharded
// network once that op is routed (see Do).
func WithRebalanceWindow(w int) Option {
	return func(o *options) { o.rebalanceWindow = w }
}

// WithTracing enables the observability layer (internal/obs): per-verb and
// per-stage latency histograms, retry-event counters, and a slowest-span
// exemplar ring, all threaded through the serving path. The
// measurements are wall-clock and exempt from the deterministic-statistics
// contracts — enabling tracing never changes any Stats or ServeOps result.
// Read the tracer back with Network.Tracer.
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
	// WorkingSetNumber is T_t(u, v) at request time: n for first-time
	// pairs, small for recent communication.
	WorkingSetNumber int
	// Alpha is the highest level at which the pair shared a list before
	// the transformation.
	Alpha int
	// HeightAfter is the skip-graph height after the transformation.
	HeightAfter int
}

// Network is a self-adjusting skip-graph overlay of n nodes addressed
// 0..n-1: one graph, or — with WithShards(S) — the key space split across S
// contiguous ranges, each an independent self-adjusting skip graph with its
// own adjuster, behind an epoch-stamped shard directory. The single graph
// is simply the S = 1 case: every entry point below runs the same dispatch,
// step and statistics for every S.
//
// Intra-shard requests are served exactly as on a single graph of size n/S;
// cross-shard requests route source→boundary and boundary→destination in
// their respective shards plus one directory-addressed forwarding hop. The
// documented worst-case target is 2·a·H(n/S) + 1 — every leg within the
// per-shard a·H(n/S) search bound, the total O(log n), within a factor 2 of
// the single-graph a·H(n) bound and below it once S ≥ √n — but a leg can
// currently exceed a·H(n/S): ExampleNetwork_ServeOps pins a worst leg of 83
// hops where a·H is 44 (ROADMAP R1). A skew-driven rebalancer migrates
// contiguous key ranges between adjacent shards when per-shard load skews
// past a threshold.
//
// Methods are not safe for concurrent use; the paper's model serves
// requests sequentially — route, then adjust — and so does every shard.
// The concurrency lives inside, on a sharded network only: ServeOps runs the
// shards side by side, each serving its own share of a window in
// order, and Do answers once its op is routed while each shard it touched
// finishes the adjustment behind the answer. Neither call may overlap other
// Network methods.
type Network struct {
	svc    *shard.Service
	ws     *workingset.Bound
	tracer *obs.Tracer

	// onResult is the running ServeOps call's result callback.
	onResult func(OpResult)
	// lastWS is T_t(u, v) of the most recent access, for Request's Result.
	lastWS int
}

// New creates an unsharded Network over n ≥ 2 nodes: one graph, one
// adjuster. It starts from the globally a-balance-repaired random skip
// graph, the state every serving entry point starts from.
func New(n int, opts ...Option) (*Network, error) { return newNetwork(n, 1, opts) }

// NewSharded is New with a default of 4 shards (see WithShards): the key
// space needs at least 2 keys per shard. Every option applies to every
// shard.
func NewSharded(n int, opts ...Option) (*Network, error) { return newNetwork(n, 4, opts) }

func newNetwork(n, shards int, opts []Option) (*Network, error) {
	o := options{balance: 4, seed: 1, shards: shards}
	for _, opt := range opts {
		opt(&o)
	}
	if o.shards < 1 {
		return nil, fmt.Errorf("lsasg: need at least 1 shard, got %d", o.shards)
	}
	nw := &Network{}
	if o.trace {
		nw.tracer = obs.NewTracer()
	}
	cfg := shard.Config{
		Shards:         o.shards,
		A:              o.balance,
		Seed:           o.seed,
		RebalanceEvery: o.rebalanceWindow,
		OnOutcome:      nw.noteKVAccess,
		Tracer:         nw.tracer,
	}
	svc, err := shard.New(n, cfg)
	if err != nil {
		return nil, err
	}
	nw.svc, nw.ws = svc, workingset.NewBound(n)
	return nw, nil
}

// Tracer returns the observability tracer when the network was built with
// WithTracing, nil otherwise. A nil tracer is safe everywhere — every
// method no-ops on it.
func (nw *Network) Tracer() *obs.Tracer { return nw.tracer }

// N returns the size of the key space [0, N): the number of node indices.
func (nw *Network) N() int { return nw.svc.N() }

// Shards returns the shard count (1 for an unsharded network).
func (nw *Network) Shards() int { return nw.svc.Shards() }

// RebalanceWindow returns the load window in effect, in requests: what
// WithRebalanceWindow set, or the default.
func (nw *Network) RebalanceWindow() int { return nw.svc.RebalanceEvery() }

// DirectoryEpoch returns the current shard-directory epoch: 0 at
// construction, +1 per rebalancer migration.
func (nw *Network) DirectoryEpoch() int64 { return nw.svc.Directory().Epoch() }

// Height returns the current skip-graph height (the tallest shard's).
func (nw *Network) Height() int { return nw.svc.Height() }

// Balance returns the a-balance parameter.
func (nw *Network) Balance() int { return nw.svc.A() }

// Requests returns the number of requests served, routes that missed (a
// removed or crashed endpoint) included, on either entry point.
func (nw *Network) Requests() int { return int(nw.svc.Totals().Requests) }

// Request serves a communication request from src to dst (distinct node
// indices in [0, N)): it routes in the current topology, then runs the DSG
// transformation that directly links the pair, followed by the scoped
// a-balance repair — the same one-op step Get and Put take. On a sharded
// network a cross-shard pair adapts both shards along its two legs;
// TransformRounds then sums them and Alpha and DirectLevel describe the
// destination-side leg. A request to an index that was removed or has
// crashed returns ErrUnknownKey or ErrDeadNode; it is counted as the miss it
// is in ServeOps — a served request that adjusted nothing. ErrBarrier comes
// with the served request's Result, as from Do. Unlike Do, Request returns
// only once the request's adjustment has run, on every shard count: its
// Result reports ρ, α and the direct level.
func (nw *Network) Request(src, dst int) (Result, error) {
	o, err := nw.svc.ApplyAdjusted(RouteOp(src, dst).internal())
	if err = wrapErr(err); err != nil && !errors.Is(err, ErrBarrier) {
		return Result{}, err
	}
	return Result{
		RouteDistance:    o.RouteDistance,
		RouteHops:        o.RouteHops,
		TransformRounds:  o.TransformRounds,
		ServiceCost:      o.RouteDistance + o.TransformRounds + 1,
		DirectLevel:      o.DirectLevel,
		WorkingSetNumber: nw.lastWS,
		Alpha:            o.Alpha,
		HeightAfter:      nw.svc.Height(),
	}, err
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
	d, err := nw.svc.Distance(int64(src), int64(dst))
	return d, wrapErr(err)
}

// DirectlyLinked reports whether src and dst currently share a linked list
// of size two (a direct link) and at which level.
func (nw *Network) DirectlyLinked(src, dst int) (bool, int) {
	return nw.svc.DirectlyLinked(int64(src), int64(dst))
}

// Stats summarizes the served request sequence.
type Stats struct {
	Requests          int
	MeanRouteDistance float64
	// MaxRouteDistance is the worst single leg: a cross-shard request's two
	// legs are measured in different shards' graphs.
	MaxRouteDistance     int
	TotalTransformRounds int64
	// WorkingSetBound is WS(σ) = Σ log2 T_i, the paper's lower bound on
	// any conforming algorithm's total routing cost.
	WorkingSetBound float64
	Height          int
	DummyCount      int

	// Rebalances counts skew-driven migrations the rebalancer executed;
	// MigratedKeys counts the keys those migrations moved between shards.
	// Both stay 0 for an unsharded Network.
	Rebalances   int64
	MigratedKeys int64
}

// Stats returns aggregate statistics for the requests served so far —
// through Request, the synchronous KV methods and ServeOps alike:
// every entry point feeds the same books.
func (nw *Network) Stats() Stats {
	t := nw.svc.Totals()
	s := Stats{
		Requests:             int(t.Requests),
		MaxRouteDistance:     int(t.MaxLegDistance),
		TotalTransformRounds: t.TransformRounds,
		Height:               nw.svc.Height(),
		DummyCount:           nw.svc.DummyCount(),
		Rebalances:           t.Rebalances,
		MigratedKeys:         t.MovedKeys,
		WorkingSetBound:      nw.ws.Total(),
	}
	if t.Requests > 0 {
		s.MeanRouteDistance = float64(t.RouteDistance) / float64(t.Requests)
	}
	return s
}

// Gauges are the figures a metrics scrape follows between ops.
type Gauges struct {
	// Height and DummyCount are Stats' two topology figures as of each
	// shard's last settled adjustment.
	Height     int
	DummyCount int
	// Rebalances and MigratedKeys are Stats' rebalancer counters, exact.
	Rebalances   int64
	MigratedKeys int64
}

// Gauges returns the live gauges without waiting for an adjustment still
// running behind an answer (see Do): cheap enough to read after every op,
// where Stats would wait for every shard. Once Stats, Verify or any other
// settling call has run, the two agree.
func (nw *Network) Gauges() Gauges {
	g := nw.svc.Gauges()
	return Gauges{Height: g.Height, DummyCount: g.DummyCount, Rebalances: g.Rebalances, MigratedKeys: g.MovedKeys}
}

// WorkingSetNumber returns T_t(u, v) for the next request between u and v
// (n for first-time pairs, N() as of the call). An index outside [0, N())
// returns ErrOutOfRange.
func (nw *Network) WorkingSetNumber(u, v int) (int, error) {
	if err := nw.checkIndex(u); err != nil {
		return 0, err
	}
	if err := nw.checkIndex(v); err != nil {
		return 0, err
	}
	return nw.ws.Tracker().WorkingSetNumber(u, v), nil
}

// Verify runs the full invariant validator on every shard — links,
// membership vectors, a-balance, the dummy books and node state.
func (nw *Network) Verify() error { return wrapErr(nw.svc.Verify()) }

// AddNode joins a new node and returns its index (standard skip-graph
// join; §IV-G): the key space grows by one and the node joins the last
// shard. The working-set bookkeeping grows with it: the new node has
// communicated with no one, so its pairs start at T = N().
func (nw *Network) AddNode() (int, error) {
	id, err := nw.svc.AddNode()
	if err != nil {
		return 0, wrapErr(err)
	}
	nw.ws.Tracker().Grow()
	return int(id), nil
}

// RemoveNode removes a node from the shard that owns it (standard
// skip-graph leave; §IV-G). The index becomes unroutable; other indices are
// unaffected.
func (nw *Network) RemoveNode(idx int) error {
	if err := nw.checkIndex(idx); err != nil {
		return err
	}
	return wrapErr(nw.svc.RemoveNode(int64(idx)))
}

// Crash injects a crash failure: the node fails in place on whichever shard
// the current directory assigns it, with dangling neighbour references,
// exactly as if its process died. A request whose route contacts the corpse
// on the way repairs it there and is served; a request addressed to the
// crashed index reports ErrDeadNode until a repair splices it out, which a
// Put or Delete of the key also does. Like every other method, Crash must not run
// concurrently with a ServeOps call.
func (nw *Network) Crash(idx int) error {
	if err := nw.checkIndex(idx); err != nil {
		return err
	}
	return wrapErr(nw.svc.Crash(int64(idx)))
}

// RenderTopology writes the tree-of-linked-lists view of the current
// topology (the paper's Fig 1(b) layout) to w, shard by shard.
func (nw *Network) RenderTopology(w io.Writer) { nw.svc.RenderTopology(w) }

// checkIndex validates a node index against the key space [0, N).
func (nw *Network) checkIndex(i int) error {
	if n := nw.N(); i < 0 || i >= n {
		return fmt.Errorf("%w: node index %d not in [0, %d)", ErrOutOfRange, i, n)
	}
	return nil
}
