package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
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
// contributes is its hold — one generation of the shard set, loaded and
// held once per request — and the scatter that gathers the summaries of
// each owning shard of it into the request's one search session. All
// state it holds is routing state (the partition, the generation
// source, metrics); the serving state lives in the shard engines, which
// a streaming deployment replaces a generation at a time underneath it.
//
// Exactness: the session runs on shard 0's searcher over every owning
// shard's summaries. Every shard carries the same indexes, and each
// summary is the bytes the single engine builds for its topic, so the
// ranking is byte-identical to a single engine over the whole topic set
// (pinned by TestGoldenAnswers and TestRouterMatchesSingleEngine).
type Router struct {
	part   *Partitioner
	gen    func() *core.Generation
	met    *routerMetrics
	ladder *core.Ladder
}

// New wires a router over a deployment's generations: gen returns the
// one serving now — stream.Pipeline.Current, or core.Static for a
// deployment that never swaps. Every generation holds one engine per
// shard of part, all over one graph and topic space.
func New(part *Partitioner, gen func() *core.Generation, cfg Config) (*Router, error) {
	if part == nil || gen == nil || gen() == nil {
		return nil, fmt.Errorf("shard: nil partitioner or generation")
	}
	first := gen()
	if len(first.Engines) != part.Shards() {
		return nil, fmt.Errorf("shard: %d engines for %d shards", len(first.Engines), part.Shards())
	}
	for i, eng := range first.Engines {
		if eng == nil {
			return nil, fmt.Errorf("shard: shard %d has no engine", i)
		}
	}
	r := &Router{part: part, gen: gen}
	if cfg.Metrics != nil {
		r.met = newRouterMetrics(cfg.Metrics)
	}
	r.ladder = core.NewLadder(cfg.Metrics, r.pin)
	return r, nil
}

// NewRouter is New over static engine sources, each resolved once into
// generation 0; g and space are only checked for presence. It survives
// only because frozen benchmark/trace.go compiles against it — like
// stream.New and Pipeline.Engine — and ROADMAP 2(a) deletes it.
func NewRouter(g *graph.Graph, space *topics.Space, part *Partitioner, sources []EngineSource, cfg Config) (*Router, error) {
	if g == nil || space == nil {
		return nil, fmt.Errorf("shard: nil graph or space")
	}
	engines := make([]*core.Engine, len(sources))
	for i, src := range sources {
		if src == nil {
			return nil, fmt.Errorf("shard: shard %d has no engine source", i)
		}
		engines[i] = src()
	}
	return New(part, core.Static(engines...), cfg)
}

// Shards returns the shard count.
func (r *Router) Shards() int { return r.part.Shards() }

// Partitioner returns the router's topic partition.
func (r *Router) Partitioner() *Partitioner { return r.part }

// Engine returns shard i's engine in the generation serving now.
func (r *Router) Engine(i int) *core.Engine { return r.gen().Engines[i] }

// Graph returns the social graph the generation serving now serves; it
// grows with streaming swaps.
func (r *Router) Graph() *graph.Graph { return r.gen().Graph() }

// Space returns the topic space the generation serving now serves.
func (r *Router) Space() *topics.Space { return r.gen().Space() }

// Ready reports whether every shard of the generation serving now is
// ready.
func (r *Router) Ready() bool {
	for _, eng := range r.gen().Engines {
		if !eng.Ready() {
			return false
		}
	}
	return true
}

// CachedSummaries sums the materialized summaries for m across the
// shards of the generation serving now.
func (r *Router) CachedSummaries(m core.Method) int { return r.gen().CachedSummaries(m) }

// Acquire holds the generation serving now — every shard's query gate —
// until release, so its retirement drains behind the caller. It is the
// one place that follows engine swaps: a hold refused because the
// generation was retired between the load and the hold re-loads and
// tries again. Each retry needs another publish, so the loop ends; a
// re-load that returns the same generation means genuinely not ready,
// and the error surfaces.
func (r *Router) Acquire(ctx context.Context) (*core.Generation, func(), error) {
	_, gen, release, err := r.hold(ctx)
	return gen, release, err
}

// hold is Acquire plus the context carrying the held gates' tokens.
func (r *Router) hold(ctx context.Context) (context.Context, *core.Generation, func(), error) {
	gen := r.gen()
	for {
		held, release, err := gen.Hold(ctx)
		if err == nil || !errors.Is(err, core.ErrNotReady) {
			return held, gen, release, err
		}
		cur := r.gen()
		if cur == gen {
			return ctx, nil, nil, err
		}
		gen = cur
	}
}

// pin is the router's core.HoldFunc: the scatter over the generation
// the request holds.
func (r *Router) pin(ctx context.Context) (context.Context, core.Opener, func(), error) {
	ctx, gen, release, err := r.hold(ctx)
	return ctx, scatter{r, gen}, release, err
}

// Close closes every engine of the generation serving now.
func (r *Router) Close() { r.gen().Close() }

// Summarize routes a summarization to the topic's owning shard.
func (r *Router) Summarize(ctx context.Context, m core.Method, t topics.TopicID) (summary.Summary, error) {
	ctx, gen, release, err := r.hold(ctx)
	if err != nil {
		return summary.Summary{}, err
	}
	defer release()
	if !gen.Space().Valid(t) {
		return summary.Summary{}, fmt.Errorf("%w: unknown topic %d", core.ErrInvalidArgument, t)
	}
	return gen.Engines[r.part.Owns(t)].Summarize(ctx, m, t)
}

// WarmOwned warms every shard's owned topics, in parallel across shards
// and opts.Workers wide within each — the corpus warm-up of a shard set.
// Each shard runs core.Engine.WarmTopics, so pit_warm_topics_total and
// pit_warm_duration_seconds move exactly as a whole-corpus
// WarmSummaries moves them; opts.Progress sees one serialized count
// over the whole topic space, whichever shard a topic landed on.
func (r *Router) WarmOwned(ctx context.Context, m core.Method, opts core.WarmOptions) error {
	ctx, gen, release, err := r.hold(ctx)
	if err != nil {
		return err
	}
	defer release()
	if report := opts.Progress; report != nil {
		var (
			mu   sync.Mutex
			done int // guarded by mu
		)
		total := gen.Space().NumTopics()
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
			errs[i] = gen.Engines[i].WarmTopics(ctx, m, r.part.Owned(i), opts)
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

// Run answers q through the one query path on one generation of the
// shard set, loaded and held once, up front, for the whole request.
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

// scatter is the router's core.Opener over the one generation a
// request holds: every read of the request goes to its engines.
type scatter struct {
	r   *Router
	gen *core.Generation
}

func (s scatter) Graph() *graph.Graph  { return s.gen.Graph() }
func (s scatter) Space() *topics.Space { return s.gen.Space() }
func (s scatter) Generation() uint64   { return s.gen.ID }

// Open splits the request's topics by owning shard and opens one
// session over every owner's summaries (core.Generation.Open): each
// shard supplies its slice from its own corpus and build path, so a
// shard whose summarizer fails fails the open only after the healthy
// shards' builds are cached, and the ladder's materialized rung then
// serves the healthy slices whole.
func (s scatter) Open(ctx context.Context, req core.OpenRequest) (core.Opened, error) {
	parts := s.r.part.Split(req.Topics)
	o, err := s.gen.Open(ctx, req, parts)
	if err != nil {
		return o, err
	}
	fanout := 0
	for _, ts := range parts {
		if len(ts) > 0 {
			fanout++
		}
	}
	done := o.Done
	o.Done = func(st *search.Stats) {
		done(st)
		s.r.met.observeScatter(fanout, st)
	}
	return o, nil
}
