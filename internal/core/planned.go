package core

// The one query path (DESIGN.md §10, §13). Ladder.Run is what
// Engine.Run and shard.Router.Run both are: validate the Query, resolve
// its q-related topics, attempt the full tier, then walk down on a real
// failure — full → materialized → ErrUnavailable — so a broken or slow
// summarizer degrades answer fidelity instead of turning into 5xx
// storms. Every answer is computed on the generation the request holds.
// Nothing is predicted: a full attempt whose deadline fires has still
// started the builds the next request needs. Each attempt is
// the same five steps: open a session, search.Drive, diversify,
// hydrate, close. The only thing a backend contributes is its HoldFunc: the
// Opener one request runs on, pinned for the whole request.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/search"
	"repro/internal/topics"
)

// OpenRequest asks an Opener for a search session over Topics.
type OpenRequest struct {
	Method Method
	Topics []topics.TopicID
	User   graph.NodeID
	// Cached opens over already-materialized summaries only, never
	// building; topics without one are left out and reported through
	// Opened.Complete. Otherwise missing summaries are built first.
	Cached bool
}

// Opened is an open search session over the requested topics (at most
// once each) for one user.
type Opened struct {
	Session *search.Session
	// Complete reports whether every requested topic is in the session.
	Complete bool
	// Done closes the session and releases whatever the opener holds
	// for it (query gates). st is the finished Drive's stats, nil when
	// the session was never driven to completion. Call exactly once.
	Done func(st *search.Stats)
}

// Opener is what an execution backend contributes to the query path:
// one session over the request's topics — the single engine's own
// summaries, or the shard router's gathered from every owning shard of
// the generation the request holds (Generation.Open).
type Opener interface {
	// Graph and Space are the dataset the opener serves; the ladder
	// validates users, resolves topics and hydrates results against them.
	Graph() *graph.Graph
	Space() *topics.Space
	// Generation is the ID of the deployment generation the opener
	// serves (0 for an engine on its own).
	Generation() uint64
	Open(ctx context.Context, req OpenRequest) (Opened, error)
}

// HoldFunc pins a backend for one Run: it returns the Opener every step
// of the request uses — so one request sees one dataset and one set of
// engines from user validation to hydration — the context carrying its
// query-gate tokens, and the release of those gates (called once, when
// the request is done).
type HoldFunc func(ctx context.Context) (context.Context, Opener, func(), error)

// Ladder runs queries for one backend. It keeps no answers: all it
// holds is the backend's hold and a metric handle, so every ladder over
// the same backend answers alike. It starts no goroutine.
type Ladder struct {
	hold HoldFunc

	// truncations counts expansion levels whose frontier was cut to
	// MaxFrontier, from each finished drive's search.Stats; nil without
	// a registry.
	truncations *obs.Counter
}

// materializedTimeout bounds the materialized-tier attempt, which runs
// detached from a request deadline that may already be blown.
const materializedTimeout = 2 * time.Second

// NewLadder wires the query path over the backend hold pins per
// request. reg, when non-nil, receives
// pit_search_frontier_truncations_total.
func NewLadder(reg *obs.Registry, hold HoldFunc) *Ladder {
	l := &Ladder{hold: hold}
	if reg != nil {
		l.truncations = reg.Counter("pit_search_frontier_truncations_total",
			"Expansion levels whose frontier exceeded MaxFrontier and was truncated best-first.")
	}
	return l
}

// Run answers q on the backend its hold pins once, up front, for the
// whole request.
//
// Error contract: request-level mistakes (ErrInvalidArgument,
// ErrNotReady) and client disconnects surface immediately — degrading
// a bad request would mask bugs, and nobody is listening for a hung-up
// one. For a FidelityFull query every failure surfaces. For a planned
// one an error return means the whole ladder was exhausted and is
// always ErrUnavailable-wrapped.
func (l *Ladder) Run(ctx context.Context, q Query) (Answer, error) {
	none := Answer{Outcome: PlanOutcome{Tier: plan.TierUnavailable}}
	ctx, backend, release, err := l.hold(ctx)
	if err != nil {
		return none, err
	}
	defer release()
	none.Generation = backend.Generation()
	if !q.Method.valid() {
		return none, fmt.Errorf("%w: unknown method %v", ErrInvalidArgument, q.Method)
	}
	if !(q.Lambda >= 0 && q.Lambda <= 1) { // NaN fails both comparisons
		return none, fmt.Errorf("%w: lambda %v outside [0, 1]", ErrInvalidArgument, q.Lambda)
	}
	if !backend.Graph().Valid(q.User) {
		return none, fmt.Errorf("%w: user %d outside the graph", ErrInvalidArgument, q.User)
	}
	related := q.Topics
	if related == nil {
		related = backend.Space().Related(q.Text)
	}
	if len(related) == 0 {
		// An empty topic set is a complete full-fidelity answer — there is
		// nothing to degrade.
		ans := Answer{Outcome: PlanOutcome{Tier: plan.TierFull, Complete: true}, Generation: none.Generation}
		if q.Trace {
			ans.Trace = &search.Trace{}
		}
		return ans, nil
	}

	// An open build breaker refuses here, inside the attempt, with
	// ErrBuildsSuspended — never reaching the summarizer — and the
	// planned request degrades as on any other build failure.
	ans, err := l.attempt(ctx, backend, q, related, false)
	if err == nil {
		return ans, nil
	}
	if q.Fidelity != FidelityPlanned || !degradable(ctx, err) {
		return none, err
	}

	// Materialized tier. The request's own deadline may already be
	// blown — that is exactly when this tier earns its keep — so it runs
	// on a fresh, bounded budget detached from the request's
	// cancellation. A partial answer serves when it ranks anything.
	mctx, cancel := cachedContext(ctx)
	ans, err = l.attempt(mctx, backend, q, related, true)
	cancel()
	if err == nil && (ans.Outcome.Complete || len(ans.Results) > 0) {
		return ans, nil
	}
	return none, fmt.Errorf("%w: query %q has no materialized answer", ErrUnavailable, q.Text)
}

// degradable reports whether a failed full attempt may be answered
// from a lower tier instead of surfacing err.
func degradable(ctx context.Context, err error) bool {
	if errors.Is(err, ErrInvalidArgument) || errors.Is(err, ErrNotReady) {
		return false
	}
	// The client hanging up is not a degradation trigger: serve nobody.
	// (Engine shutdown also surfaces Canceled from the lifecycle
	// context, but then the request ctx itself is still live.)
	return !(errors.Is(err, context.Canceled) && ctx.Err() != nil)
}

// cachedContext derives the materialized tier's budget: bounded by
// materializedTimeout and detached from ctx's cancellation.
func cachedContext(ctx context.Context) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.WithoutCancel(ctx), materializedTimeout)
}

// attempt is one tier's run: open a session over related (building, or
// cached-only), drive it through Algorithm 10, diversify when asked,
// and hydrate the ranking into topic records. The answer's Tier is
// materialized when the session ran on cached-only summaries.
func (l *Ladder) attempt(ctx context.Context, backend Opener, q Query, related []topics.TopicID, cached bool) (Answer, error) {
	o, err := backend.Open(ctx, OpenRequest{Method: q.Method, Topics: related, User: q.User, Cached: cached})
	if err != nil {
		return Answer{}, err
	}
	var stats *search.Stats
	defer func() { o.Done(stats) }()

	ans := Answer{Outcome: PlanOutcome{Tier: plan.TierFull, Complete: o.Complete}, Generation: backend.Generation()}
	if cached {
		ans.Outcome.Tier = plan.TierMaterialized
	}
	sums := o.Session.Summaries()
	total := len(sums)
	k := q.K
	if k <= 0 || k > total {
		k = total
	}
	fetch := k
	if q.Lambda > 0 {
		// Over-fetch candidates for the re-rank, but keep at least one
		// topic outside the requested set: with fetch = |T_q| the dynamic
		// search is decided immediately (Algorithm 10 stops when T′ \ T^k
		// is empty) and would skip the expansion that gives candidates
		// comparable scores.
		fetch = max(k, min(3*k, total-1))
	}
	if q.Trace {
		ans.Trace = &search.Trace{}
	}
	res, st, err := search.Drive(ctx, o.Session, fetch, ans.Trace)
	if err != nil {
		return Answer{}, err
	}
	stats = &st
	if l.truncations != nil && st.Truncated > 0 {
		l.truncations.Add(uint64(st.Truncated))
	}
	if q.Lambda > 0 {
		res = search.Diversify(res, sums, q.Lambda, k)
	}
	space := backend.Space()
	ans.Results = make([]TopicResult, len(res))
	for i, r := range res {
		ans.Results[i] = TopicResult{Topic: space.Topic(r.Topic), Score: r.Score}
	}
	return ans, nil
}
