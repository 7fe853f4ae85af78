package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/search"
	"repro/internal/summary"
	"repro/internal/topics"
)

// Config tunes a Router.
type Config struct {
	// Metrics, when non-nil, registers the pit_shard_* families.
	Metrics *obs.Registry
}

// Router is the scatter-gather front of a shard set. It runs queries
// through the same core.Ladder a single engine does; what it
// contributes is Open, which scatters the session open to the owning
// shards. All state it holds is routing state (the partition, engine
// sources, metrics, the ladder's last-known-good answers — a merged
// answer spans shards, so no single engine ever held it); the serving
// state lives in the shard engines, which swap independently underneath
// it.
//
// Exactness: search.Drive steps one search.Session per owning shard
// level by level, exchanging the global k-th score each round — the
// per-shard frontier evolution is topic-independent and the pruning
// predicate runs on the same float64 inputs the single engine's would,
// so the merged ranking is byte-identical to a single engine over the
// whole topic set (pinned by TestGoldenAnswers and
// TestRouterMatchesSingleEngine). A shard all of whose topics the bound
// prunes stops expanding mid-scatter.
type Router struct {
	part   *Partitioner
	shards []EngineSource
	met    *routerMetrics
	ladder *core.Ladder
}

// NewRouter wires a router over one engine source per shard. Every
// source must resolve to a non-nil engine built over the same graph
// and topic space; g and space are that boot dataset and are only
// checked for presence — the router reads the dataset from shard 0's
// current engine (Graph, Space), because streaming swaps grow it. The
// plan config (policy, stale cache, materialized budget) is taken from
// shard 0's engine options, which a homogeneous deployment shares
// across shards.
func NewRouter(g *graph.Graph, space *topics.Space, part *Partitioner, sources []EngineSource, cfg Config) (*Router, error) {
	if g == nil || space == nil || part == nil {
		return nil, fmt.Errorf("shard: nil graph, space or partitioner")
	}
	if len(sources) != part.Shards() {
		return nil, fmt.Errorf("shard: %d engine sources for %d shards", len(sources), part.Shards())
	}
	for i, src := range sources {
		if src == nil || src() == nil {
			return nil, fmt.Errorf("shard: shard %d has no engine source", i)
		}
	}
	r := &Router{part: part, shards: sources}
	if cfg.Metrics != nil {
		r.met = newRouterMetrics(cfg.Metrics, part.Shards())
	}
	r.ladder = core.NewLadder(sources[0]().Options().Plan, cfg.Metrics, r)
	return r, nil
}

// Shards returns the shard count.
func (r *Router) Shards() int { return r.part.Shards() }

// Partitioner returns the router's topic partition.
func (r *Router) Partitioner() *Partitioner { return r.part }

// Engine returns shard i's current engine.
func (r *Router) Engine(i int) *core.Engine { return r.shards[i]() }

// Graph returns the social graph shard 0's current engine serves. The
// graph is replicated across shards and grows with streaming swaps, so
// this follows the swap instead of pinning the boot snapshot.
func (r *Router) Graph() *graph.Graph { return r.shards[0]().Graph() }

// Space returns the topic space shard 0's current engine serves.
func (r *Router) Space() *topics.Space { return r.shards[0]().Space() }

// Ready reports whether every shard's current engine is ready, and
// refreshes the per-shard readiness gauges.
func (r *Router) Ready() bool {
	all := true
	for i, src := range r.shards {
		ok := src().Ready()
		r.met.setReady(i, ok)
		if !ok {
			all = false
		}
	}
	return all
}

// CachedSummaries sums the materialized summaries for m across shards
// — corpus ownership is disjoint, so the sum is the corpus size.
func (r *Router) CachedSummaries(m core.Method) int {
	n := 0
	for _, src := range r.shards {
		n += src().CachedSummaries(m)
	}
	return n
}

// IndexStats reports shard 0's index sizing. Every shard carries a
// full copy of the immutable indexes (the partition splits the
// corpus, not the graph), so one shard's numbers describe them all.
func (r *Router) IndexStats() core.IndexStats { return r.shards[0]().IndexStats() }

// Hold registers a read against every shard's query gate, so a
// concurrent retire/close on any shard drains behind the caller.
func (r *Router) Hold(ctx context.Context) (context.Context, func(), error) {
	releases := make([]func(), 0, len(r.shards))
	releaseAll := func() {
		for _, f := range releases {
			f()
		}
	}
	for i := range r.shards {
		err := r.withShard(i, func(eng *core.Engine) error {
			_, rel, err := eng.Hold(ctx)
			if err == nil {
				releases = append(releases, rel)
			}
			return err
		})
		if err != nil {
			releaseAll()
			return ctx, nil, err
		}
	}
	return ctx, releaseAll, nil
}

// Close stops the ladder's detached revalidations, then closes every
// shard's current engine.
func (r *Router) Close() {
	r.ladder.Close()
	for _, src := range r.shards {
		src().Close()
	}
}

// withShard runs fn against shard i's current engine, re-resolving and
// retrying when the engine was retired under the call (core.ErrNotReady
// from an engine that is no longer current: the call lost a streaming
// swap race, and the replacement answers). This is the one place that
// follows engine swaps — everything above the router, the HTTP server
// included, holds the router for its whole lifetime. Each retry needs
// another swap to have happened, so the loop terminates; a fresh resolve
// that returns the same engine means genuinely not ready, and the error
// surfaces.
func (r *Router) withShard(i int, fn func(eng *core.Engine) error) error {
	eng := r.shards[i]()
	for {
		err := fn(eng)
		if err == nil || !errors.Is(err, core.ErrNotReady) {
			return err
		}
		cur := r.shards[i]()
		if cur == eng {
			return err
		}
		eng = cur
	}
}

// Summarize routes a summarization to the topic's owning shard.
func (r *Router) Summarize(ctx context.Context, m core.Method, t topics.TopicID) (summary.Summary, error) {
	if !r.Space().Valid(t) {
		return summary.Summary{}, fmt.Errorf("%w: unknown topic %d", core.ErrInvalidArgument, t)
	}
	var s summary.Summary
	err := r.withShard(r.part.Owns(t), func(eng *core.Engine) error {
		var err error
		s, err = eng.Summarize(ctx, m, t)
		return err
	})
	return s, err
}

// WarmOwned warms every shard's owned topics, in parallel across shards
// and opts.Workers wide within each — the corpus warm-up of a shard set.
// Each shard runs core.Engine.WarmTopics, so pit_warm_topics_total and
// pit_warm_duration_seconds move exactly as a whole-corpus
// WarmSummaries moves them; opts.Progress sees one serialized count
// over the whole topic space, whichever shard a topic landed on.
// Because each shard has its own RCL summarizer (and its own rclMu), N
// shards warm N× as many RCL topics concurrently as one engine can.
func (r *Router) WarmOwned(ctx context.Context, m core.Method, opts core.WarmOptions) error {
	if report := opts.Progress; report != nil {
		var (
			mu   sync.Mutex
			done int // guarded by mu
		)
		total := r.Space().NumTopics()
		opts.Progress = func(int, int) {
			mu.Lock()
			done++
			report(done, total)
			mu.Unlock()
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, r.part.Shards())
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = r.withShard(i, func(eng *core.Engine) error {
				return eng.WarmTopics(ctx, m, r.part.Owned(i), opts)
			})
		}()
	}
	wg.Wait()
	return firstError(errs)
}

// firstError returns the lowest-shard failure of a scatter.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Run answers q through the one query path with the shard set as its
// backend.
func (r *Router) Run(ctx context.Context, q core.Query) (core.Answer, error) {
	return r.ladder.Run(ctx, q)
}

// SearchTopics is Run for a full-fidelity query over an explicit topic
// set, as bare (topic ID, score) rows. The frozen benchmark/ harness
// compiles against it; new code calls Run.
func (r *Router) SearchTopics(ctx context.Context, m core.Method, related []topics.TopicID, user graph.NodeID, k int) ([]search.Result, error) {
	ans, err := r.Run(ctx, core.Query{Method: m, Topics: related, User: user, K: k, Fidelity: core.FidelityFull})
	return ans.Ranking(), err
}

// Open implements core.Opener: it scatters the open to every owning
// shard in parallel and gathers one session per shard. Each shard walks
// its own two rungs when the request allows it: a shard whose build
// path fails — breaker open, summarizer fault, build timeout — degrades
// alone to its cached summaries while the healthy shards keep answering
// at full fidelity, so one tripped shard costs fidelity on its slice of
// the topic space, never the whole query. On any other failure every
// opened session is closed and the lowest-shard error surfaces
// (deterministically, like the single engine's first-error contract).
func (r *Router) Open(ctx context.Context, req core.OpenRequest) (core.Opened, error) {
	type opened struct {
		core.Opened
		shard int
		took  time.Duration
	}
	parts := r.part.Split(req.Topics)
	outs := make([]opened, 0, len(parts))
	for i, ts := range parts {
		if len(ts) > 0 {
			outs = append(outs, opened{shard: i})
		}
	}
	errs := make([]error, len(outs))
	var wg sync.WaitGroup
	for j := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := &outs[j]
			t0 := time.Now()
			sub := req
			sub.Topics = parts[o.shard]
			errs[j] = r.withShard(o.shard, func(eng *core.Engine) error {
				var err error
				o.Opened, err = eng.Open(ctx, sub)
				if err == nil || sub.Cached || !sub.MayDegrade || !r.ladder.Degradable(ctx, err) {
					return err
				}
				// This shard's full tier is down; serve its slice from
				// cache, on the materialized tier's detached budget so an
				// already-blown request deadline still gets the degraded
				// answer the tier exists for.
				cached := sub
				cached.Cached = true
				octx, cancel := r.ladder.CachedContext(ctx)
				defer cancel()
				if o.Opened, err = eng.Open(octx, cached); err == nil {
					o.Degraded = true
					r.met.noteDegraded(o.shard)
				}
				return err
			})
			o.took = time.Since(t0)
		}()
	}
	wg.Wait()

	all := core.Opened{Complete: true}
	for _, o := range outs {
		all.Sessions = append(all.Sessions, o.Sessions...)
		all.Complete = all.Complete && o.Complete
		all.Degraded = all.Degraded || o.Degraded
	}
	all.Done = func(st *search.Stats) {
		for _, o := range outs {
			if o.Done == nil {
				continue // this shard's open failed
			}
			r.met.observeShard(o.shard, o.took+o.Sessions[0].ExpandTime())
			o.Done(nil)
		}
		r.met.observeScatter(len(outs), st)
	}
	if err := firstError(errs); err != nil {
		all.Done(nil)
		return core.Opened{}, err
	}
	return all, nil
}

// PlanInputs implements core.Opener over the owning shards: a build is
// admitted if any of them would admit one (the rest degrade alone, see
// Open), and the cost is the sum of theirs — pessimistic for a parallel
// scatter, which is the safe direction for a planner.
func (r *Router) PlanInputs(m core.Method, ts []topics.TopicID) plan.Inputs {
	in := plan.Inputs{Calibrated: true}
	for i, part := range r.part.Split(ts) {
		if len(part) == 0 {
			continue
		}
		s := r.shards[i]().PlanInputs(m, part)
		in.BreakerReady = in.BreakerReady || s.BreakerReady
		in.Calibrated = in.Calibrated && s.Calibrated
		in.Estimate += s.Estimate
	}
	return in
}
