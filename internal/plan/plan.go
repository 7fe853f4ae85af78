// Package plan is the per-request fidelity planner behind the serving
// stack's graceful degradation. The paper's whole premise is that
// summaries trade a bounded amount of precision for large latency wins;
// this package generalizes the single degradation step of the earlier
// serving work (deadline → materialized-only) into a staged ladder that
// *plans* which fidelity to serve under the request's remaining budget
// instead of failing (cf. "Topic-Based Influence Computation in Social
// Networks under Resource Constraints", arXiv 1801.02198):
//
//	full         — on-demand summarization + top-k search, the paper's
//	               exact online algorithm (Algorithms 10–11)
//	materialized — already-cached summaries only: partial but cheap
//	               (pure Γ lookups), the PR-4 fallback
//	stale        — the last-known-good answer for this exact request
//	               from a bounded TTL cache, served while a detached
//	               revalidation rebuilds it (stale-while-revalidate)
//	unavailable  — nothing cached at any fidelity: an explicit
//	               503 + Retry-After, the only planned "no answer"
//
// Two measured signals drive the choice of the starting tier:
//
//   - the request's remaining deadline versus a per-tier cost model
//     calibrated from the live internal/obs duration histograms
//     (cost.go) — a request that cannot afford the uncached builds
//     skips straight to materialized instead of burning its budget;
//   - a circuit breaker around summarizer builds (breaker.go) — a
//     broken kernel degrades the tier instead of stalling every query
//     on singleflight.
//
// There is no operator dial: a caller that needs the exact answer or a
// build-free one says so per query (core.FidelityFull, core.FidelityCached)
// and skips the planner. The ladder itself — attempt a tier, degrade on
// failure — is executed by core.Ladder.Run; this package owns the
// decision inputs and the supporting state machines so they are
// unit-testable without an engine.
package plan

import (
	"fmt"
	"time"
)

// Tier is one rung of the fidelity ladder, ordered from highest
// fidelity (TierFull) to no answer at all (TierUnavailable).
type Tier int

const (
	// TierFull is the exact online search with on-demand summarization.
	TierFull Tier = iota
	// TierMaterialized restricts the search to already-cached summaries.
	TierMaterialized
	// TierStale serves the last-known-good cached answer for the exact
	// (method, query, user, k, lambda) request while a detached
	// revalidation refreshes it.
	TierStale
	// TierUnavailable means no tier could produce an answer; the serving
	// layer maps it to 503 + Retry-After.
	TierUnavailable
)

// Tiers lists every tier in ladder order — handy for pre-registering
// metric children so tier counters expose before first use.
var Tiers = []Tier{TierFull, TierMaterialized, TierStale, TierUnavailable}

// String returns the tier's wire name (the X-Pit-Tier header value and
// the pit_search_tier_total label).
func (t Tier) String() string {
	switch t {
	case TierFull:
		return "full"
	case TierMaterialized:
		return "materialized"
	case TierStale:
		return "stale"
	case TierUnavailable:
		return "unavailable"
	default:
		return fmt.Sprintf("Tier(%d)", int(t))
	}
}

// Inputs are the signals Decide weighs when choosing the starting tier
// for one request.
type Inputs struct {
	// BreakerReady reports whether the method's build breaker would
	// admit a build right now (closed, or open with an expired cooldown
	// ready for a half-open probe). False skips the full tier entirely.
	BreakerReady bool
	// HaveDeadline reports whether the request carries a deadline;
	// Budget is the time remaining until it. Without a deadline the
	// budget check is skipped (nothing to protect).
	HaveDeadline bool
	Budget       time.Duration
	// Estimate is the cost model's prediction for the full tier
	// (uncached builds + search); Calibrated reports whether it is
	// backed by enough live observations to be trusted. An uncalibrated
	// model never skips the full tier — optimism plus the mid-flight
	// degradation path beats guessing from made-up priors.
	Estimate   time.Duration
	Calibrated bool
}

// Decision is the planner's starting point for one request: the first
// tier to attempt and the reason it was chosen (a bounded label:
// "breaker", "budget" or "ok").
type Decision struct {
	Start  Tier
	Reason string
}

// Decide picks the starting tier. It is a pure function of its inputs:
// the ladder's *execution* (attempt, degrade, attempt lower) lives in
// the engine, which re-plans nothing — one decision per request, then
// failures walk down the ladder.
func Decide(in Inputs) Decision {
	if !in.BreakerReady {
		return Decision{Start: TierMaterialized, Reason: "breaker"}
	}
	if in.HaveDeadline && in.Calibrated && in.Estimate > in.Budget {
		return Decision{Start: TierMaterialized, Reason: "budget"}
	}
	return Decision{Start: TierFull, Reason: "ok"}
}
