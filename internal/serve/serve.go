// Package serve is an adapter kept for the frozen benchmark harness only:
// its "serve" rung (benchmark/layers.go:276–283, read at lines 668–669)
// compiles against New, Config, Result, Stats and Engine.Serve. Every name
// here runs a one-shard shard.Service over the caller's DSG; the serving
// step itself — route, then adjust — lives in internal/shard. ROADMAP R6,
// the next change to the harness, deletes this package.
package serve

import (
	"context"

	"lsasg/internal/core"
	"lsasg/internal/obs"
	"lsasg/internal/shard"
)

// Config parameterizes an Engine.
type Config struct {
	// BatchSize is ignored.
	BatchSize int
	// OnResult, when non-nil, observes every request served, in order.
	OnResult func(r Result)
	// Tracer is the one-shard service's tracer (shard.Config.Tracer).
	Tracer *obs.Tracer
}

// Result is one served request's outcome.
type Result = shard.Outcome

// Stats aggregates one Serve run: Batches counts the requests served.
type Stats struct{ Batches int64 }

// MeanAdjustLag is 1 once anything was served: every request adjusts
// before the next one routes.
func (s Stats) MeanAdjustLag() float64 { return float64(min(s.Batches, 1)) }

// Engine serves requests over one DSG: a one-shard shard.Service.
type Engine struct{ svc *shard.Service }

// New creates an engine over the DSG, whose key space is [0, n) with n one
// above its largest real key (see shard.NewOver).
func New(d *core.DSG, cfg Config) *Engine {
	return &Engine{shard.NewOver(d, shard.Config{OnOutcome: cfg.OnResult, Tracer: cfg.Tracer})}
}

// Serve is shard.Service.Serve: it consumes op envelopes until the channel
// closes (or ctx is cancelled), serves each — route, then adjust — and
// returns the count of requests served.
func (e *Engine) Serve(ctx context.Context, in <-chan core.Op) (Stats, error) {
	st, err := e.svc.Serve(ctx, in)
	return Stats{Batches: st.Requests}, err
}
