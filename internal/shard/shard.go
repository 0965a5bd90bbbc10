package shard

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"lsasg/internal/core"
	"lsasg/internal/obs"
	"lsasg/internal/skipgraph"
)

// Config parameterizes a Service.
type Config struct {
	// Shards is the number of partitions S (≥ 1). Values < 1 mean 1.
	Shards int
	// A is the a-balance parameter of every shard's DSG (default 4).
	A int
	// Seed drives all randomness; shard i derives its own stream from it, so
	// results are reproducible for a fixed (Seed, Shards) pair.
	Seed int64
	// Parallelism and BatchSize are ignored: owed to the frozen harness,
	// benchmark/layers.go:296; the next benchmark PR deletes the mention and
	// these with it.
	Parallelism int
	BatchSize   int

	// RebalanceEvery is the load window's length in requests: after every
	// window the planner runs at the barrier, every shard settled. On S > 1
	// shards Serve also collects, serves and delivers what is left of the
	// window together; Apply counts its one op into the same window. Values
	// < 1 mean 512.
	RebalanceEvery int
	// SkewThreshold is the max/mean shard-load ratio that triggers a
	// migration (default 1.5; values ≤ 1 mean the default).
	SkewThreshold float64
	// MinShardKeys is the smallest key count a migration may leave in a
	// shard (default 2).
	MinShardKeys int

	// CheckInvariants and Finder are passed to every shard's core.Config:
	// full structural verification after each adjustment, and the median
	// finder behind the transformation's splits (nil means the randomized
	// AMF).
	CheckInvariants bool
	Finder          core.MedianFinder

	// OnOutcome, when non-nil, receives every op's assembled result — point
	// outcomes, stitched cross-shard scans, and route path measurements —
	// in dispatch order, once the window it was served in — one op, for
	// Apply — has been served.
	OnOutcome func(o Outcome)

	// Tracer, when non-nil, turns on the observability layer: every
	// shard's step feeds its stage histograms (route leg, adjust apply) and
	// times its legs' route halves, and the dispatcher assembles whole-op
	// spans (with per-leg breakdowns) and per-verb latency as it assembles
	// the outcomes. A nil tracer keeps the step timing-free. Wall-clock
	// measurements never feed ServeStats.
	Tracer *obs.Tracer
}

func (c Config) shards() int {
	if c.Shards < 1 {
		return 1
	}
	return c.Shards
}

func (c Config) rebalanceEvery() int {
	if c.RebalanceEvery < 1 {
		return 512
	}
	return c.RebalanceEvery
}

func (c Config) skewThreshold() float64 {
	if c.SkewThreshold <= 1 {
		return 1.5
	}
	return c.SkewThreshold
}

func (c Config) minShardKeys() int {
	if c.MinShardKeys < 2 {
		return 2
	}
	return c.MinShardKeys
}

// Service is a self-adjusting skip-graph service over the key space [0, n),
// partitioned across S ≥ 1 shards; a single graph is the S = 1 case.
// Construction partitions the keys evenly; the rebalancer may move
// contiguous ranges between shards afterwards, so a shard's range is
// whatever the current directory epoch says.
type Service struct {
	cfg    Config
	n      int64
	shards []*slot
	dir    atomic.Pointer[Directory]

	// keyLoad[k] counts op endpoints touching key k in the current load
	// window, and loadOps the ops counted into it: written by dispatch for
	// streamed and synchronous ops alike, read by the planner at the
	// window's barrier, cleared when the next window starts.
	keyLoad []int64
	loadOps int

	// live[k] says whether key k is in its shard's graph and has not
	// crashed: what a cross-shard access may use as its boundary key. Every
	// membership change passes through the dispatcher in dispatch order — a
	// Put joins its key and a Delete retires it whatever was there before —
	// so the dispatcher keeps the answer itself instead of asking the graphs,
	// which a window's later ops would find in the state before its earlier
	// ones. Migration moves keys between graphs and changes no entry.
	live []bool

	// win is the window in flight: the dispatched ops, their per-shard legs
	// and the leg results the shards' steps write back.
	win window

	// serving is set while a Serve, Apply, Crash, AddNode or RemoveNode
	// call is in flight.
	serving atomic.Bool

	// failed holds the failures of settled tails that no call has reported
	// yet.
	failed error
	// beforeTail, when set, runs on a tail's goroutine before its adjustment
	// does: the tests' way to hold one behind its answer.
	beforeTail func(shard int)

	// totals are the lifetime books over every Serve run and Apply.
	totals Totals
}

// Totals are a Service's lifetime books: every Serve run and every
// synchronous Apply folds its ServeStats in, so both paths feed the same
// numbers.
type Totals struct {
	Requests int64
	// RouteDistance, MaxLegDistance and TransformRounds accumulate the
	// ServeStats fields TotalRouteDistance, MaxLegDistance and
	// TotalTransformRounds.
	RouteDistance   int64
	MaxLegDistance  int64
	TransformRounds int64
	// Rebalances counts the migrations executed, MovedKeys the keys they
	// moved across shards.
	Rebalances int64
	MovedKeys  int64
}

// New builds a service over keys 0..n-1. Every shard needs at least
// MinShardKeys keys in the initial split.
func New(n int, cfg Config) (*Service, error) {
	s := cfg.shards()
	if n < s*cfg.minShardKeys() {
		return nil, fmt.Errorf("shard: %d keys cannot fill %d shards with ≥ %d keys each", n, s, cfg.minShardKeys())
	}
	if cfg.A == 0 {
		cfg.A = 4
	}
	dir := newDirectory(int64(n), s)
	dsgs := make([]*core.DSG, s)
	for i := range dsgs {
		lo, hi := dir.Range(i)
		nodes := make([]*skipgraph.Node, 0, hi-lo)
		for k := lo; k < hi; k++ {
			nodes = append(nodes, skipgraph.NewNode(skipgraph.KeyOf(k), k))
		}
		g := skipgraph.NewFromNodes(nodes, skipgraph.RandomBrancher(cfg.Seed+int64(i)*1_000_003))
		dsgs[i] = core.NewFromGraph(g, core.Config{
			A:               cfg.A,
			Seed:            cfg.Seed + int64(i),
			CheckInvariants: cfg.CheckInvariants,
			Finder:          cfg.Finder,
			// Disjoint dummy-id spaces per shard: migration can carry any
			// real id into any shard, so dummy ids live far above them all.
			DummyIDBase: int64(n) + int64(i+1)<<32,
		})
	}
	return newService(int64(n), cfg, dir, dsgs), nil
}

// NewOver builds a one-shard service over a DSG the caller built, such as
// core.New's. Its key space is [0, n), n one above the DSG's largest real
// key. The DSG keeps its own configuration: cfg's Shards, A, Seed,
// CheckInvariants and Finder are ignored.
func NewOver(d *core.DSG, cfg Config) *Service {
	var n int64
	if _, top, ok := d.Graph().RealKeyBounds(); ok {
		n = top + 1
	}
	cfg.Shards, cfg.A = 1, d.A()
	return newService(n, cfg, newDirectory(n, 1), []*core.DSG{d})
}

func newService(n int64, cfg Config, dir *Directory, dsgs []*core.DSG) *Service {
	svc := &Service{cfg: cfg, n: n, keyLoad: make([]int64, n), live: make([]bool, n), win: newWindow(len(dsgs))}
	svc.dir.Store(dir)
	for k := range svc.live {
		svc.live[k] = true
	}
	for _, d := range dsgs {
		sl := &slot{dsg: d, tr: cfg.Tracer}
		sl.publish()
		svc.shards = append(svc.shards, sl)
	}
	return svc
}

// N returns the total key count.
func (s *Service) N() int { return int(s.n) }

// Shards returns the shard count.
func (s *Service) Shards() int { return len(s.shards) }

// Directory returns the current directory (immutable; callers may hold it).
func (s *Service) Directory() *Directory { return s.dir.Load() }

// RebalanceEvery returns the load window's length in requests.
func (s *Service) RebalanceEvery() int { return s.cfg.rebalanceEvery() }

// A returns the a-balance parameter of every shard's DSG.
func (s *Service) A() int { return s.cfg.A }

// Totals returns the lifetime books, every adjustment settled first. Like
// every accessor here it must not be called while a Serve call is in
// flight.
func (s *Service) Totals() Totals {
	s.settleAll()
	return s.totals
}

// Height returns the tallest shard topology. Like every accessor here it
// settles every shard and reads the live graphs, so it must not be called
// while a Serve call is in flight.
func (s *Service) Height() int {
	s.settleAll()
	h := 0
	for _, sl := range s.shards {
		if sh := sl.dsg.Graph().Height(); sh > h {
			h = sh
		}
	}
	return h
}

// DummyCount sums the dummy populations of all shards.
func (s *Service) DummyCount() int {
	s.settleAll()
	c := 0
	for _, sl := range s.shards {
		c += sl.dsg.DummyCount()
	}
	return c
}

// Verify checks all structural invariants of every shard's topology.
func (s *Service) Verify() error {
	s.settleAll()
	if err := s.takeFailed(); err != nil {
		return err
	}
	for i, sl := range s.shards {
		if err := sl.dsg.Graph().Verify(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// Distance returns the current whole-request routing distance src→dst
// without adjusting anything: the legs' distances in their shards' graphs
// plus the boundary intermediates of a cross-shard request.
func (s *Service) Distance(src, dst int64) (int, error) {
	if err := s.checkKey(src); err != nil {
		return 0, err
	}
	if err := s.checkKey(dst); err != nil {
		return 0, err
	}
	s.settleAll()
	if err := s.takeFailed(); err != nil {
		return 0, err
	}
	legs, n, cross := s.dir.Load().splitLegs(s.live, src, dst)
	total := 0
	if cross {
		total = n
	}
	for _, l := range legs[:n] {
		r, err := s.shards[l.shard].dsg.Graph().RouteKeys(skipgraph.KeyOf(l.src), skipgraph.KeyOf(l.dst))
		if err != nil {
			return 0, err
		}
		total += r.Distance()
	}
	return total, nil
}

// DirectlyLinked reports whether src and dst share a linked list of size two
// (a direct link) and at which level. Keys on different shards never do.
func (s *Service) DirectlyLinked(src, dst int64) (bool, int) {
	if s.checkKey(src) != nil || s.checkKey(dst) != nil {
		return false, 0
	}
	s.settleAll()
	dir := s.dir.Load()
	d := s.shards[dir.ShardOf(src)].dsg
	u, v := d.NodeByID(src), d.NodeByID(dst)
	if u == nil || v == nil {
		return false, 0
	}
	return d.Graph().DirectlyLinked(u, v)
}

// RenderTopology writes every shard's tree-of-linked-lists view (the
// paper's Fig 1(b) layout) to w, in key order.
func (s *Service) RenderTopology(w io.Writer) {
	s.settleAll()
	for i, sl := range s.shards {
		if len(s.shards) > 1 {
			lo, hi := s.dir.Load().Range(i)
			fmt.Fprintf(w, "shard %d [%d, %d)\n", i, lo, hi)
		}
		fmt.Fprint(w, sl.dsg.Graph().TreeView().RenderLevels(nil, nil))
	}
}

// Crash injects a crash failure synchronously: the node fails in place on
// whichever shard the current directory assigns it — dangling neighbour
// references until a Put or Delete of the key repairs it. Like AddNode and
// RemoveNode it fails while a Serve or Apply call is in flight, settles the
// shard it changes first, and does nothing but report a failed adjustment
// it finds there (see Apply).
func (s *Service) Crash(id int64) error {
	if err := s.reserve("Crash"); err != nil {
		return err
	}
	defer s.serving.Store(false)
	if err := s.checkKey(id); err != nil {
		return err
	}
	sh := s.dir.Load().ShardOf(id)
	if err := s.settleShard(sh); err != nil {
		return err
	}
	sl := s.shards[sh]
	err := sl.dsg.Crash(id)
	sl.publish()
	if err != nil {
		return err
	}
	sl.epoch++
	s.live[id] = false
	return nil
}

// AddNode joins a new key at the top of the key space: key n enters the last
// shard's topology (a tracked join with scoped balance repair) and the
// directory grows to [0, n+1). It returns the new key. It fails while a
// Serve or Apply call is in flight.
func (s *Service) AddNode() (int64, error) {
	if err := s.reserve("AddNode"); err != nil {
		return 0, err
	}
	defer s.serving.Store(false)
	id := s.n
	if err := s.settleShard(len(s.shards) - 1); err != nil {
		return 0, err
	}
	if err := s.shards[len(s.shards)-1].applyBatch([]skipgraph.Entry{{ID: id}}, nil); err != nil {
		return 0, err
	}
	s.dir.Store(s.dir.Load().grown())
	s.keyLoad = append(s.keyLoad, 0)
	s.live = append(s.live, true)
	s.n++
	return id, nil
}

// RemoveNode makes key id leave its owning shard's topology (a tracked
// leave with scoped balance repair). The key stays inside the key space,
// absent like a deleted one, until a Put re-joins it. It fails while a
// Serve or Apply call is in flight.
func (s *Service) RemoveNode(id int64) error {
	if err := s.reserve("RemoveNode"); err != nil {
		return err
	}
	defer s.serving.Store(false)
	if err := s.checkKey(id); err != nil {
		return err
	}
	sh := s.dir.Load().ShardOf(id)
	if err := s.settleShard(sh); err != nil {
		return err
	}
	if err := s.shards[sh].applyBatch(nil, []int64{id}); err != nil {
		return err
	}
	s.live[id] = false
	return nil
}

// Gauges are what Service.Gauges reads without settling anything.
type Gauges struct {
	Height     int // the tallest shard's, as of its last settled adjustment
	DummyCount int // summed over shards, likewise
	Rebalances int64
	MovedKeys  int64
}

// Gauges returns the topology figures as of each shard's last settled
// adjustment, without waiting for one still running behind an answer, and
// the migration books, which the dispatcher keeps itself.
func (s *Service) Gauges() Gauges {
	g := Gauges{Rebalances: s.totals.Rebalances, MovedKeys: s.totals.MovedKeys}
	for _, sl := range s.shards {
		g.Height = max(g.Height, int(sl.height.Load()))
		g.DummyCount += int(sl.dummies.Load())
	}
	return g
}

// settle waits for shard i's adjustment behind an answer, if one is
// running, and folds it into the lifetime books; a failure it left joins
// s.failed. Every read of a shard's graph or of the books settles first.
func (s *Service) settle(i int) {
	sl := s.shards[i]
	sl.tail.Wait()
	s.totals.TransformRounds += sl.rounds
	sl.rounds = 0
	if sl.err != nil {
		s.failed = errors.Join(s.failed, fmt.Errorf("shard %d: %w", i, sl.err))
		sl.err = nil
	}
}

// settleAll settles every shard.
func (s *Service) settleAll() {
	for i := range s.shards {
		s.settle(i)
	}
}

// settleShard settles shard i and reports the failures settled so far.
func (s *Service) settleShard(i int) error {
	s.settle(i)
	return s.takeFailed()
}

// takeFailed reports, once, the failures of the settled adjustments,
// wrapping ErrBarrier.
func (s *Service) takeFailed() error {
	err := s.failed
	if err == nil {
		return nil
	}
	s.failed = nil
	return fmt.Errorf("%w: an adjustment behind an answer failed: %w", ErrBarrier, err)
}

// reserve takes the serving flag for one Serve, Apply, Crash, AddNode or
// RemoveNode call; an overlapping caller gets an error instead of racing the
// one in flight.
func (s *Service) reserve(what string) error {
	if !s.serving.CompareAndSwap(false, true) {
		return fmt.Errorf("shard: %s on a service that is already serving", what)
	}
	return nil
}

// checkKey validates one endpoint.
func (s *Service) checkKey(k int64) error {
	if k < 0 || k >= s.n {
		return fmt.Errorf("shard: key %d out of range [0, %d)", k, s.n)
	}
	return nil
}
