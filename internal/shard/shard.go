package shard

import (
	"fmt"
	"sync"
	"sync/atomic"

	"lsasg/internal/core"
	"lsasg/internal/obs"
	"lsasg/internal/serve"
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
	// Parallelism and BatchSize configure each shard's serve.Engine.
	Parallelism int
	BatchSize   int

	// RebalanceEvery is the Serve pipeline's window length in requests:
	// after every window the planner runs at an engine-idle barrier.
	// Values < 1 mean 512.
	RebalanceEvery int
	// SkewThreshold is the max/mean shard-load ratio that triggers a
	// migration (default 1.5; values ≤ 1 mean the default).
	SkewThreshold float64
	// MinShardKeys is the smallest key count a migration may leave in a
	// shard (default 2).
	MinShardKeys int

	// OnRequest, when non-nil, observes every request accepted by the Serve
	// pipeline in sequence order (before its legs are
	// dispatched) — scans included, as the access (src, start). The sharded
	// public API uses it for working-set bookkeeping.
	OnRequest func(src, dst int64, crossShard bool)

	// OnOutcome, when non-nil, receives every op's assembled result — point
	// outcomes, stitched cross-shard scans, and route path measurements — at
	// each window barrier of the Serve pipeline, in dispatch order.
	OnOutcome func(o Outcome)

	// Tracer, when non-nil, turns on the observability layer: the shard
	// engines feed its stage histograms and per-leg timings, and the
	// dispatcher assembles whole-op spans (with per-leg breakdowns) and
	// per-verb latency at the window barrier. Routes only get spans when
	// OnOutcome is set — untagged route legs leave no fragments to
	// assemble. Wall-clock measurements never feed ServeStats.
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

// slot is one shard: its live DSG and the engine serializing its mutation.
type slot struct {
	dsg *core.DSG
	eng *serve.Engine
}

// Service is a sharded self-adjusting skip-graph service over the static key
// space [0, n). Construction partitions the keys evenly; the rebalancer may
// move contiguous ranges between shards afterwards, so a shard's range is
// whatever the current directory epoch says.
type Service struct {
	cfg    Config
	n      int64
	shards []*slot
	dir    atomic.Pointer[Directory]

	// keyLoad[k] counts routed leg endpoints touching key k in the current
	// load window; the planner consumes and resets it. Only the Serve
	// dispatcher touches it.
	keyLoad []int64

	// frags collects tagged KV leg results from the shard engines during a
	// window; deliverOutcomes drains it at the barrier.
	fragMu sync.Mutex
	frags  map[int64][]tagFrag

	// serving is set while a Serve call is in flight.
	serving atomic.Bool

	// rebalances and movedKeys count migrations over the service's lifetime;
	// only a Serve call's barrier writes them.
	rebalances int64
	movedKeys  int64
}

// New builds a sharded service over keys 0..n-1. Every shard needs at least
// MinShardKeys keys in the initial split.
func New(n int, cfg Config) (*Service, error) {
	s := cfg.shards()
	if n < s*cfg.minShardKeys() {
		return nil, fmt.Errorf("shard: %d keys cannot fill %d shards with ≥ %d keys each", n, s, cfg.minShardKeys())
	}
	svc := &Service{cfg: cfg, n: int64(n), keyLoad: make([]int64, n), frags: make(map[int64][]tagFrag)}
	dir := newDirectory(int64(n), s)
	svc.dir.Store(dir)
	a := cfg.A
	if a == 0 {
		a = 4
	}
	for i := 0; i < s; i++ {
		lo, hi := dir.Range(i)
		nodes := make([]*skipgraph.Node, 0, hi-lo)
		for k := lo; k < hi; k++ {
			nodes = append(nodes, skipgraph.NewNode(skipgraph.KeyOf(k), k))
		}
		g := skipgraph.NewFromNodes(nodes, skipgraph.RandomBrancher(cfg.Seed+int64(i)*1_000_003))
		d := core.NewFromGraph(g, core.Config{
			A:    a,
			Seed: cfg.Seed + int64(i),
			// Disjoint dummy-id spaces per shard: migration can carry any
			// real id into any shard, so dummy ids live far above them all.
			DummyIDBase: int64(n) + int64(i+1)<<32,
		})
		shardIdx := i
		eng := serve.New(d, serve.Config{
			Parallelism:        cfg.Parallelism,
			BatchSize:          cfg.BatchSize,
			TolerateAdjustMiss: true,
			// Engines under a dispatcher feed stage histograms and leg
			// timings only; the dispatcher owns whole-op spans.
			Tracer:        cfg.Tracer,
			TraceLegsOnly: true,
			// Tagged KV legs report their results here for barrier-time
			// assembly; untagged (route) legs pass through.
			OnResult: func(r serve.Result) { svc.captureFrag(shardIdx, r) },
		})
		svc.shards = append(svc.shards, &slot{dsg: d, eng: eng})
	}
	return svc, nil
}

// N returns the total key count.
func (s *Service) N() int { return int(s.n) }

// Shards returns the shard count.
func (s *Service) Shards() int { return len(s.shards) }

// Directory returns the current directory (immutable; callers may hold it).
func (s *Service) Directory() *Directory { return s.dir.Load() }

// Rebalances returns the number of migrations executed so far. Like
// MigratedKeys, it must not be called while a Serve call is in flight.
func (s *Service) Rebalances() int64 { return s.rebalances }

// MigratedKeys returns the number of keys moved across shards so far.
func (s *Service) MigratedKeys() int64 { return s.movedKeys }

// Height returns the tallest shard topology. Like every accessor here it
// reads the live graphs, so it must not be called while a Serve call is in
// flight.
func (s *Service) Height() int {
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
	c := 0
	for _, sl := range s.shards {
		c += sl.dsg.DummyCount()
	}
	return c
}

// Verify checks all structural invariants of every shard's topology.
func (s *Service) Verify() error {
	for i, sl := range s.shards {
		if err := sl.dsg.Graph().Verify(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// Crash injects a crash failure synchronously: the node fails in place on
// whichever shard the current directory assigns it — dangling neighbour
// references until a Put or Delete of the key repairs it. Requires the
// owning engine to be idle (no Serve in flight).
func (s *Service) Crash(id int64) error {
	if err := s.checkKey(id); err != nil {
		return err
	}
	sh := s.dir.Load().ShardOf(id)
	return s.shards[sh].eng.ApplyCrashIdle(id)
}

// checkKey validates one endpoint.
func (s *Service) checkKey(k int64) error {
	if k < 0 || k >= s.n {
		return fmt.Errorf("shard: key %d out of range [0, %d)", k, s.n)
	}
	return nil
}

// recordLoad attributes one routed request's endpoints to the load window.
func (s *Service) recordLoad(src, dst int64) {
	s.keyLoad[src]++
	s.keyLoad[dst]++
}

// takeKeyLoads hands the per-key load window to the caller and starts a
// fresh one.
func (s *Service) takeKeyLoads() []int64 {
	out := s.keyLoad
	s.keyLoad = make([]int64, len(out))
	return out
}
