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
// hydrate, close. The only thing a deployment contributes is its
// generation source: the ladder holds the generation serving now for
// the whole request, and every tier opens on it (Generation.Open).

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/topics"
)

// Tier is one rung of the fidelity ladder, ordered from highest
// fidelity (TierFull) to no answer at all (TierUnavailable). Every
// request attempts TierFull; only a real failure walks it down.
type Tier int

const (
	// TierFull is the exact online search with on-demand summarization
	// (Algorithms 10–11).
	TierFull Tier = iota
	// TierMaterialized restricts the search to already-cached summaries:
	// partial but cheap (pure Γ lookups).
	TierMaterialized
	// TierUnavailable means no tier could produce an answer; the serving
	// layer maps it to 503 + Retry-After.
	TierUnavailable
)

// Tiers lists every tier in ladder order — handy for pre-registering
// metric children so tier counters expose before first use. It is an
// array, so len(Tiers) is a constant that sizes per-tier tables.
var Tiers = [...]Tier{TierFull, TierMaterialized, TierUnavailable}

// String returns the tier's wire name (the X-Pit-Tier header value and
// the pit_search_tier_total label).
func (t Tier) String() string {
	switch t {
	case TierFull:
		return "full"
	case TierMaterialized:
		return "materialized"
	case TierUnavailable:
		return "unavailable"
	default:
		return fmt.Sprintf("Tier(%d)", int(t))
	}
}

// OpenRequest asks a Generation for a search session over Topics.
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
	// Owners is how many of the generation's engines own a requested
	// topic, and so supplied summaries to the session.
	Owners int
	// Done closes the session and releases the generation's hold on
	// it. Call exactly once.
	Done func()
}

// Ladder runs queries for one deployment. It keeps no answers: all it
// holds is the deployment's generation source and its metric hooks, so
// every ladder over the same source answers alike. It starts no
// goroutine.
type Ladder struct {
	gen func() *Generation

	// drove, when non-nil, sees every finished drive: the owning
	// engines its session gathered from and the drive's stats.
	drove func(owners int, st search.Stats)

	// truncations counts expansion levels whose frontier was cut to
	// MaxFrontier, from each finished drive's search.Stats; nil without
	// a registry.
	truncations *obs.Counter
}

// materializedTimeout bounds the materialized-tier attempt, which runs
// detached from a request deadline that may already be blown.
const materializedTimeout = 2 * time.Second

// NewLadder wires the query path over a deployment's generations: gen
// returns the one serving now (Static for a deployment that never
// swaps). reg, when non-nil, receives
// pit_search_frontier_truncations_total; drove, when non-nil, sees
// every finished drive.
func NewLadder(reg *obs.Registry, gen func() *Generation, drove func(owners int, st search.Stats)) *Ladder {
	l := &Ladder{gen: gen, drove: drove}
	if reg != nil {
		l.truncations = reg.Counter("pit_search_frontier_truncations_total",
			"Expansion levels whose frontier exceeded MaxFrontier and was truncated best-first.")
	}
	return l
}

// Hold loads the generation serving now and holds it — every engine's
// query gate — until release, so its retirement drains behind the
// caller; the returned context carries the held gates' tokens. It is
// the one place that follows generation swaps: a hold refused because
// the generation was retired between the load and the hold re-loads
// and tries again. Each retry needs another publish, so the loop ends;
// a re-load that returns the same generation means genuinely not
// ready, and the error surfaces.
func (l *Ladder) Hold(ctx context.Context) (context.Context, *Generation, func(), error) {
	gen := l.gen()
	for {
		held, release, err := gen.Hold(ctx)
		if err == nil || !errors.Is(err, ErrNotReady) {
			return held, gen, release, err
		}
		cur := l.gen()
		if cur == gen {
			return ctx, nil, nil, err
		}
		gen = cur
	}
}

// Run answers q on the generation Hold loads and holds once, up front,
// for the whole request.
//
// Error contract: request-level mistakes (ErrInvalidArgument,
// ErrNotReady) and client disconnects surface immediately — degrading
// a bad request would mask bugs, and nobody is listening for a hung-up
// one. For a FidelityFull query every failure surfaces. For a planned
// one an error return means the whole ladder was exhausted and is
// always ErrUnavailable-wrapped.
func (l *Ladder) Run(ctx context.Context, q Query) (Answer, error) {
	none := Answer{Outcome: PlanOutcome{Tier: TierUnavailable}}
	ctx, gen, release, err := l.Hold(ctx)
	if err != nil {
		return none, err
	}
	defer release()
	none.Generation = gen.ID
	if !q.Method.valid() {
		return none, fmt.Errorf("%w: unknown method %v", ErrInvalidArgument, q.Method)
	}
	if !(q.Lambda >= 0 && q.Lambda <= 1) { // NaN fails both comparisons
		return none, fmt.Errorf("%w: lambda %v outside [0, 1]", ErrInvalidArgument, q.Lambda)
	}
	if !gen.Graph().Valid(q.User) {
		return none, fmt.Errorf("%w: user %d outside the graph", ErrInvalidArgument, q.User)
	}
	related := q.Topics
	if related == nil {
		related = gen.Space().Related(q.Text)
	}
	if len(related) == 0 {
		// An empty topic set is a complete full-fidelity answer — there is
		// nothing to degrade.
		ans := Answer{Outcome: PlanOutcome{Tier: TierFull, Complete: true}, Generation: none.Generation}
		if q.Trace {
			ans.Trace = &search.Trace{}
		}
		return ans, nil
	}

	ans, err := l.attempt(ctx, gen, q, related, false)
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
	ans, err = l.attempt(mctx, gen, q, related, true)
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
func (l *Ladder) attempt(ctx context.Context, gen *Generation, q Query, related []topics.TopicID, cached bool) (Answer, error) {
	o, err := gen.Open(ctx, OpenRequest{Method: q.Method, Topics: related, User: q.User, Cached: cached})
	if err != nil {
		return Answer{}, err
	}
	defer o.Done()

	ans := Answer{Outcome: PlanOutcome{Tier: TierFull, Complete: o.Complete}, Generation: gen.ID}
	if cached {
		ans.Outcome.Tier = TierMaterialized
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
	if l.truncations != nil && st.Truncated > 0 {
		l.truncations.Add(uint64(st.Truncated))
	}
	if l.drove != nil {
		l.drove(o.Owners, st)
	}
	if q.Lambda > 0 {
		res = search.Diversify(res, sums, q.Lambda, k)
	}
	space := gen.Space()
	ans.Results = make([]TopicResult, len(res))
	for i, r := range res {
		ans.Results[i] = TopicResult{Topic: space.Topic(r.Topic), Score: r.Score}
	}
	return ans, nil
}
