// Package core is the public face of the PIT-Search library: it wires the
// substrates together into the paper's full pipeline — offline index
// construction (Algorithm 6 walk index + Section 5.1 propagation index),
// offline per-topic social summarization (RCL-A or LRW-A, cached), and the
// online top-k personalized influential topic search (Algorithms 10–11).
//
// Typical usage:
//
//	eng, _ := core.New(g, space, core.Options{})
//	_ = eng.BuildIndexes(ctx)
//	ans, _ := eng.Run(ctx, core.Query{Text: "phone", User: user, K: 10})
//
// Run is the one online entry point (query.go, planned.go). Its
// context.Context is threaded down through the summarizers and the
// top-k search; a canceled or expired context stops the work early with
// ctx.Err() instead of burning CPU.
//
// Concurrency design (PR 3): the online read path is lock-free for
// readers. Readiness is an atomic flag that publishes the immutable
// indexes, the summary cache is sharded with per-shard RWMutexes
// (sumcache.go), and cache misses deduplicate through a singleflight
// group so a thundering herd of identical queries triggers exactly one
// summarization. The remaining mutexes serialize only what is truly
// mutable: index construction, the RCL summarizer's BFS scratch, and
// the fault-injection override table.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/lrw"
	"repro/internal/obs"
	"repro/internal/propidx"
	"repro/internal/randwalk"
	"repro/internal/rcl"
	"repro/internal/search"
	"repro/internal/storage"
	"repro/internal/summary"
	"repro/internal/topics"
)

// Sentinel errors let callers (the HTTP layer in particular) map engine
// failures to the right behavior without string matching. Engine methods
// wrap them with %w; test with errors.Is.
var (
	// ErrInvalidArgument tags request-level mistakes — unknown topic,
	// unknown method, user outside the graph. An HTTP server should answer
	// 400, not 500.
	ErrInvalidArgument = errors.New("core: invalid argument")
	// ErrNotReady tags use-before-BuildIndexes: the engine exists but its
	// offline indexes are not built yet. An HTTP server should answer 503.
	ErrNotReady = errors.New("core: engine not ready")
	// ErrUnavailable tags a planned request no tier could answer: the
	// full attempt failed and the materialized one had nothing cached to
	// rank. An HTTP server should answer 503 + Retry-After.
	ErrUnavailable = errors.New("core: no fidelity tier available")
)

// Method selects which social summarization backs a search.
type Method int

const (
	// MethodLRW is LRW-A (Section 4), the paper's preferred method.
	MethodLRW Method = iota
	// MethodRCL is RCL-A (Section 3).
	MethodRCL
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case MethodLRW:
		return "LRW-A"
	case MethodRCL:
		return "RCL-A"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// valid reports whether m names a known summarization method.
func (m Method) valid() bool { return m == MethodLRW || m == MethodRCL }

// Options configures an Engine. The zero value gives the paper's default
// parameters at laptop scale.
type Options struct {
	// WalkL and WalkR are Algorithm 6's L (walk length, default 6 — the
	// paper's iteration length) and R (walks per node, default 16).
	WalkL, WalkR int
	// Theta is the propagation-index threshold θ (default 0.01).
	Theta float64
	// RCL and LRW tune the two summarizers.
	RCL rcl.Options
	LRW lrw.Options
	// Search tunes the online top-k search.
	Search search.Options
	// Seed drives walk sampling and RCL-A randomness.
	Seed int64
	// Metrics, when non-nil, is the observability registry the engine
	// and its query path register their instruments on: summary-cache
	// hit/miss counters, singleflight build/dedup counters, build and
	// index durations, frontier truncations. Nil disables
	// instrumentation at zero cost.
	Metrics *obs.Registry
}

func (o *Options) fill() {
	if o.WalkL <= 0 {
		o.WalkL = 6
	}
	if o.WalkR <= 0 {
		o.WalkR = 16
	}
	if o.Theta <= 0 || o.Theta >= 1 {
		o.Theta = 0.01
	}
	if o.RCL.Seed == 0 {
		o.RCL.Seed = o.Seed
	}
}

// Engine owns the graph, topic space, both offline indexes, the two
// summarizers and a sharded per-method summary cache. All methods are
// safe for concurrent use after BuildIndexes has returned.
type Engine struct {
	g     *graph.Graph
	space *topics.Space
	opts  Options

	// Set by BuildIndexes/LoadArtifacts/ShareIndexes and published by
	// the ready flag: immutable — and therefore read without locks —
	// once ready is true. idx is the shareable read-only unit
	// (indexset.go); the summarizers are per-engine, built over its walk
	// index, and both are safe for concurrent use.
	idx    indexSet
	lrwSum *lrw.Summarizer
	rclSum *rcl.Summarizer

	ready   atomic.Bool // true once BuildIndexes published the fields above
	buildMu sync.Mutex  // serializes BuildIndexes

	ovMu     sync.RWMutex
	override map[Method]summary.Summarizer // guarded by ovMu

	// life bounds the engine's detached background work (the shared
	// singleflight builds, via flight.Base). Close cancels it: waiter
	// cancellation never aborts a shared build, but engine shutdown must.
	life     context.Context
	stopLife context.CancelFunc

	// corpus is the materialized-summary unit: sharded cache plus the
	// build-deduplicating singleflight group (corpus.go). In a
	// partitioned deployment each shard engine's corpus holds only the
	// topics its partition owns.
	corpus corpus

	// met holds the obs handles when Options.Metrics was set; nil
	// disables instrumentation (use sites are nil-checked, and the
	// checks are branch-predictable no-ops in the disabled case).
	met *engineMetrics

	// The query path (planned.go) with this engine as its Opener.
	ladder *Ladder

	// Artifact-backed state (artifacts.go). handles own the file
	// mappings behind LoadArtifacts-restored indexes and mapped marks
	// such a loaded engine: every online entry point holds the query
	// gate so Close can drain in-flight queries before releasing the
	// mappings. Both are written before ready is published and immutable
	// afterwards. unmapOnce makes the release idempotent across
	// concurrent Close calls.
	handles   []*storage.Handle
	mapped    bool
	gated     bool
	gate      queryGate
	unmapOnce sync.Once
}

// New returns an Engine over the graph and topic space. Indexes are not
// built yet; call BuildIndexes before searching.
func New(g *graph.Graph, space *topics.Space, opts Options) (*Engine, error) {
	if g == nil || space == nil {
		return nil, fmt.Errorf("core: nil graph or topic space")
	}
	opts.fill()
	e := &Engine{
		g:        g,
		space:    space,
		opts:     opts,
		override: map[Method]summary.Summarizer{},
	}
	e.life, e.stopLife = context.WithCancel(context.Background())
	e.corpus.init(e.life)
	if opts.Metrics != nil {
		e.met = newEngineMetrics(opts.Metrics)
	}
	e.ladder = NewLadder(opts.Metrics, e.hold)
	return e, nil
}

// Close shuts down the engine's background work: it cancels the
// lifecycle context bounding the shared singleflight summary builds, so
// background work that no waiter can cancel (by design — see
// Summarize) stops instead of outliving the process's drain period.
// Close is idempotent and does not invalidate the cache:
// already-materialized summaries keep serving, but cache misses after
// Close fail with context.Canceled. Call it after the serving layer has
// drained.
//
// That is the contract of a built engine (BuildIndexes, ShareIndexes),
// whose indexes live on the heap. A loaded engine (LoadArtifacts) reads
// its indexes out of file mappings and additionally drains: Close blocks
// until in-flight queries finish, then releases the mappings; queries
// arriving after that fail with ErrNotReady instead of faulting on
// unmapped memory.
func (e *Engine) Close() {
	e.stopLife()
	if e.mapped {
		e.gate.closeAndDrain()
		e.unmapOnce.Do(func() {
			for _, h := range e.handles {
				h.Close()
			}
		})
	}
}

// EnableDrainGate routes every online entry point through the query
// gate even when the indexes are heap-owned (mapped engines always
// gate). The streaming pipeline calls it on each engine before
// publishing it, so Retire can refuse new queries and drain in-flight
// ones during an engine swap. The flag is read without synchronization
// once the engine serves traffic, so it must be set before the engine
// is shared; publication through an atomic pointer (the swap) provides
// the necessary happens-before edge.
func (e *Engine) EnableDrainGate() { e.gated = true }

// Retire shuts down an engine that has been replaced by a newer one in
// an engine swap. Unlike Close, it drains FIRST and cancels the
// lifecycle after: queries that were admitted before the swap finish at
// full fidelity (their cache-miss builds still run under a live
// lifecycle context) instead of failing mid-flight with a canceled
// build. New top-level queries racing the retirement get ErrNotReady;
// the caller routes them to the replacement engine. Idempotent, like
// Close, and safe to follow with Close.
func (e *Engine) Retire() {
	if e.mapped || e.gated {
		e.gate.closeAndDrain()
	}
	e.stopLife()
	if e.mapped {
		e.unmapOnce.Do(func() {
			for _, h := range e.handles {
				h.Close()
			}
		})
	}
}

// Hold registers a top-level read against the engine's query gate and
// returns a release func. Readers of index state outside the query
// entry points hold the gate so a concurrent Retire/Close cannot unmap
// under the read. On engines that neither map files nor gate
// (EnableDrainGate), it is free. The returned context carries this
// gate's token, so nested calls on this engine do not re-acquire.
func (e *Engine) Hold(ctx context.Context) (context.Context, func(), error) {
	return e.acquire(ctx)
}

// Graph returns the engine's social graph.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Options returns the engine's effective (defaults-filled) options, so a
// refreshed engine over an updated graph can be configured identically.
func (e *Engine) Options() Options { return e.opts }

// CachedSummary returns the cached summary of t under m, if materialized.
func (e *Engine) CachedSummary(m Method, t topics.TopicID) (summary.Summary, bool) {
	return e.corpus.cached(cacheKey{m, t})
}

// Space returns the engine's topic space.
func (e *Engine) Space() *topics.Space { return e.space }

// Walks returns the walk index (nil before BuildIndexes).
func (e *Engine) Walks() *randwalk.Index { return e.idx.walks }

// Prop returns the propagation index (nil before BuildIndexes).
func (e *Engine) Prop() *propidx.Index { return e.idx.prop }

// Ready reports whether BuildIndexes has completed, i.e. whether the
// online entry points will answer instead of returning ErrNotReady.
func (e *Engine) Ready() bool { return e.ready.Load() }

// SetSummarizer replaces the backend summarizer for method m — the
// fault-injection / alternative-backend seam. The replacement receives
// every cache-miss Summarize call (the engine does not serialize it; it
// must be safe for concurrent use, or manage its own locking). Passing nil
// restores the built-in implementation. Already-cached summaries are kept;
// call InvalidateTopic to force recomputation through the replacement.
func (e *Engine) SetSummarizer(m Method, s summary.Summarizer) {
	e.ovMu.Lock()
	defer e.ovMu.Unlock()
	if s == nil {
		delete(e.override, m)
		return
	}
	e.override[m] = s
}

// BuildIndexes constructs the offline indexes: the L-length random-walk
// index of Algorithm 6 and the personalized propagation index of Section
// 5.1. It is idempotent. ctx is threaded into both index builders, so a
// canceled context (shutdown, deployment rollback) aborts a long build.
func (e *Engine) BuildIndexes(ctx context.Context) error {
	return e.publishIndexes(func() (indexSet, error) { return buildIndexSet(ctx, e.g, e.opts) })
}

func (e *Engine) requireIndexes() error {
	if !e.ready.Load() {
		return fmt.Errorf("%w: BuildIndexes has not been called", ErrNotReady)
	}
	return nil
}

// gateTokenKey marks a context as already holding the query gate it
// names, so nested entry points on the same engine (Run → Open →
// Summarize all receive the same ctx) piggyback on the outer acquisition
// instead of re-acquiring — see queryGate. It names one gate: a context
// holding engine A's gate still acquires engine B's, or B's Retire would
// not wait for the query.
type gateTokenKey struct{ gate *queryGate }

// acquire is the entry gate of every online query path: it checks
// readiness and, when the indexes are views into file mappings,
// registers the query with the gate so Close cannot unmap under it.
// Callers must thread the returned context into nested work and call
// release when the query finishes (it is never nil on success). Engines
// with heap-owned indexes skip the gate entirely, preserving the
// original lock-free entry.
func (e *Engine) acquire(ctx context.Context) (context.Context, func(), error) {
	if err := e.requireIndexes(); err != nil {
		return ctx, nil, err
	}
	if !e.mapped && !e.gated {
		return ctx, func() {}, nil
	}
	token := gateTokenKey{&e.gate}
	if ctx.Value(token) != nil {
		return ctx, func() {}, nil // nested within this engine's held gate
	}
	release, ok := e.gate.acquire()
	if !ok {
		return ctx, nil, fmt.Errorf("%w: engine closed", ErrNotReady)
	}
	return context.WithValue(ctx, token, true), release, nil
}

// firstError records the first error a worker pool observes. A plain
// mutex, not an atomic.Value: Value.CompareAndSwap panics when two
// workers race to store errors of different concrete types (e.g. a
// *fmt.wrapError from a failed summarization vs context.Canceled), and
// mixed failure modes are exactly when this type is exercised.
type firstError struct {
	mu  sync.Mutex
	err error
}

// set records err if no error has been recorded yet. nil is ignored.
func (f *firstError) set(err error) {
	if err == nil {
		return
	}
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

// get returns the recorded error, if any.
func (f *firstError) get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// Summarize returns (building and caching on first use) the topic-aware
// social summarization of t under the given method — the offline stage of
// Algorithm 5 / Algorithm 9. Cache hits are served even when ctx is
// already done (they cost nothing); cache misses check ctx before the
// build and deduplicate through a singleflight group: N concurrent
// misses on one (method, topic) trigger exactly one summarization, and
// all N callers receive its result. A waiter whose ctx expires while the
// shared build runs returns ctx.Err() without aborting the build — the
// surviving waiters (and the cache) still want it. The one signal that
// does cancel a running shared build is engine shutdown: Close cancels
// the lifecycle context every build is derived from.
//
// It is the one-topic case of the engine's miss path (miss.go), which
// Open, MaterializeTopics and WarmTopics hand their misses to in blocks.
func (e *Engine) Summarize(ctx context.Context, m Method, t topics.TopicID) (summary.Summary, error) {
	ctx, release, err := e.acquire(ctx)
	if err != nil {
		return summary.Summary{}, err
	}
	defer release()
	if !m.valid() {
		return summary.Summary{}, fmt.Errorf("%w: unknown method %v", ErrInvalidArgument, m)
	}
	var out [1]summary.Summary
	if err := e.summarizeInto(ctx, m, []topics.TopicID{t}, out[:], 1, nil); err != nil {
		return summary.Summary{}, err
	}
	return out[0], nil
}

// MaterializeAll pre-computes and caches summaries for every topic in the
// space under the given method — the paper's full offline topic-to-
// representative index build (reported in Figures 15–16). It is
// WarmSummaries with the default pool size and no progress reporting;
// callers that want bounded workers, progress callbacks or warm metrics
// use WarmSummaries directly.
func (e *Engine) MaterializeAll(ctx context.Context, m Method) error {
	return e.WarmSummaries(ctx, m, WarmOptions{})
}

// InvalidateTopic drops the cached summaries of t for every method, so the
// next Summarize recomputes them. The paper refreshes the offline
// summarization "after a period of time when the social network and topics
// have changed" (§4.4); callers tracking topic churn can refresh just the
// affected topics instead of rebuilding the whole topic-to-representative
// index.
func (e *Engine) InvalidateTopic(t topics.TopicID) {
	e.corpus.cache.deleteTopic(t, MethodLRW, MethodRCL)
}

// CachedSummaries returns how many topic summaries are currently
// materialized for the method.
func (e *Engine) CachedSummaries(m Method) int {
	return e.corpus.cache.countMethod(m)
}

// PreloadSummaries seeds the cache with externally materialized summaries
// (e.g. loaded from internal/storage). Summaries for unknown topics or
// failing validation are rejected; a failed preload installs nothing.
func (e *Engine) PreloadSummaries(m Method, sums []summary.Summary) error {
	if !m.valid() {
		return fmt.Errorf("%w: unknown method %v", ErrInvalidArgument, m)
	}
	if err := e.validateSummaries(sums); err != nil {
		return err
	}
	e.corpus.cache.putAll(m, sums)
	return nil
}

// validateSummaries is the admission check on externally materialized
// summaries: each names a topic of the engine's space and is
// Validate-clean.
func (e *Engine) validateSummaries(sums []summary.Summary) error {
	for _, s := range sums {
		if !e.space.Valid(s.Topic) {
			return fmt.Errorf("%w: summary references unknown topic %d", ErrInvalidArgument, s.Topic)
		}
		if err := s.Validate(); err != nil {
			return fmt.Errorf("core: topic %d: %w", s.Topic, err)
		}
	}
	return nil
}

// Run answers q through the one query path (planned.go) with this
// engine as the backend. It holds the query gate for the whole request:
// a concurrent Retire/Close drains behind it, and nothing the request
// nests — builds, the search, the diversification re-rank — can lose
// the engine half way.
func (e *Engine) Run(ctx context.Context, q Query) (Answer, error) {
	return e.ladder.Run(ctx, q)
}

// hold is the engine's HoldFunc: the engine itself, under its query
// gate.
func (e *Engine) hold(ctx context.Context) (context.Context, Opener, func(), error) {
	ctx, release, err := e.acquire(ctx)
	return ctx, e, release, err
}

// Generation implements Opener: an engine on its own is a static
// deployment, generation 0. Deployments that swap engines number their
// generations in Generation.ID.
func (e *Engine) Generation() uint64 { return 0 }

// Acquire holds the engine's query gate and returns it as the
// generation it serves on its own — the whole-deployment hold of a
// single engine (see shard.Router.Acquire).
func (e *Engine) Acquire(ctx context.Context) (*Generation, func(), error) {
	_, release, err := e.acquire(ctx)
	if err != nil {
		return nil, nil, err
	}
	return &Generation{Engines: []*Engine{e}}, release, nil
}

// Open implements Opener: Generation.Open over this engine alone — one
// search session over req.Topics for req.User, holding the query gate
// until Done.
func (e *Engine) Open(ctx context.Context, req OpenRequest) (Opened, error) {
	g := Generation{Engines: []*Engine{e}}
	return g.Open(ctx, req, [][]topics.TopicID{req.Topics})
}

// summaries appends the summaries of ts under req.Method to dst, for a
// search session. A building request materializes cache misses first,
// in blocks through the engine's miss path (deduplicated through the
// corpus singleflight) on up to builders goroutines; a cached request
// takes what is materialized and counts the rest as skipped. dst must
// have room for len(ts) more.
func (e *Engine) summaries(ctx context.Context, req OpenRequest, ts []topics.TopicID, dst []summary.Summary, builders int) ([]summary.Summary, error) {
	if !req.Cached {
		n := len(dst)
		dst = dst[:n+len(ts)]
		return dst, e.summarizeInto(ctx, req.Method, ts, dst[n:], builders, nil)
	}
	for _, t := range ts {
		if s, ok := e.corpus.cached(cacheKey{req.Method, t}); ok {
			dst = append(dst, s)
		} else if e.met != nil {
			e.met.materializedSkipped[req.Method].Inc()
		}
	}
	return dst, nil
}

// MaterializeTopics returns the summaries of the given topics under m,
// building cache misses in blocks across up to `workers` goroutines
// (≤ 0: GOMAXPROCS, via clampWorkers). Concurrent builds of one topic —
// within this call or across calls — collapse to one summarization via
// the singleflight group. The result is indexed like the input; on
// error the first failure in input order is returned, once every other
// block has built.
func (e *Engine) MaterializeTopics(ctx context.Context, m Method, ts []topics.TopicID, workers int) ([]summary.Summary, error) {
	ctx, release, err := e.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	if !m.valid() {
		return nil, fmt.Errorf("%w: unknown method %v", ErrInvalidArgument, m)
	}
	sums := make([]summary.Summary, len(ts))
	if err := e.summarizeInto(ctx, m, ts, sums, workers, nil); err != nil {
		return nil, err
	}
	return sums, nil
}

// The four methods below are what the frozen benchmark/ harness
// compiles against. Each builds a Query and calls Run; new code calls
// Run directly.

// Search is Run for a full-fidelity keyword query (benchmark/ compat).
func (e *Engine) Search(ctx context.Context, m Method, query string, user graph.NodeID, k int) ([]TopicResult, error) {
	ans, err := e.Run(ctx, Query{Method: m, Text: query, User: user, K: k, Fidelity: FidelityFull})
	return ans.Results, err
}

// SearchPlanned is Run for a planned keyword query (benchmark/ compat).
func (e *Engine) SearchPlanned(ctx context.Context, m Method, query string, user graph.NodeID, k int, lambda float64) ([]TopicResult, PlanOutcome, error) {
	ans, err := e.Run(ctx, Query{Method: m, Text: query, User: user, K: k, Lambda: lambda})
	return ans.Results, ans.Outcome, err
}

// SearchTopics is Run for a full-fidelity query over an explicit topic
// set, as bare (topic ID, score) rows (benchmark/ compat).
func (e *Engine) SearchTopics(ctx context.Context, m Method, related []topics.TopicID, user graph.NodeID, k int) ([]search.Result, error) {
	ans, err := e.Run(ctx, Query{Method: m, Topics: related, User: user, K: k, Fidelity: FidelityFull})
	return ans.Ranking(), err
}

// SearchTrace is SearchTopics with Algorithm 10/11 diagnostics
// (benchmark/ compat).
func (e *Engine) SearchTrace(ctx context.Context, m Method, related []topics.TopicID, user graph.NodeID, k int) (*search.Trace, error) {
	ans, err := e.Run(ctx, Query{Method: m, Topics: related, User: user, K: k, Fidelity: FidelityFull, Trace: true})
	return ans.Trace, err
}
