package core

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/search"
	"repro/internal/topics"
)

// Fidelity says which tiers of the ladder (planned.go) a query may use.
type Fidelity int

const (
	// FidelityPlanned walks the whole ladder: it attempts the full tier
	// and failures degrade full → materialized → ErrUnavailable.
	// The zero value, and what the serving layer sends.
	FidelityPlanned Fidelity = iota
	// FidelityFull is the exact search only: missing summaries are
	// built, and any failure surfaces as the error.
	FidelityFull
)

// Query is the one request type of the online path — what /search,
// /subscribe, cmd/pitsearch and library callers all speak. The zero
// Fidelity and Lambda give a planned, undiversified top-K.
type Query struct {
	Method Method
	// Text is the keyword query; its q-related topics are
	// Space.Related(Text) (Algorithm 10 line 1).
	Text string
	// Topics, when non-nil, is an explicit q-related topic set used
	// instead of resolving Text.
	Topics []topics.TopicID
	User   graph.NodeID
	// K ≤ 0 (or beyond the topic count) ranks every related topic.
	K int
	// Lambda > 0 re-ranks by representative-overlap diversification
	// (search.Diversify) over a 3K over-fetched candidate list; Run
	// refuses a Lambda outside [0, 1] (NaN included).
	Lambda   float64
	Fidelity Fidelity
	// Trace asks for Answer.Trace.
	Trace bool
}

// PlanOutcome reports how a query was served.
type PlanOutcome struct {
	// Tier is the fidelity tier that produced the answer (or
	// TierUnavailable alongside ErrUnavailable).
	Tier Tier
	// Complete reports whether every q-related topic contributed
	// (always true for a full answer; a materialized answer may be
	// partial).
	Complete bool
}

// TopicResult is one ranked entry of a PIT-Search answer, carrying the
// full topic for presentation.
type TopicResult struct {
	Topic topics.Topic
	Score float64
}

// Answer is what Run returns.
type Answer struct {
	Results []TopicResult
	// Outcome's Tier is authoritative: the serving layer annotates the
	// response with it and must not guess.
	Outcome PlanOutcome
	// Trace holds the Algorithm 10/11 diagnostics of the run that
	// produced Results when Query.Trace was set. With Lambda > 0 its
	// Results are the over-fetched candidates before the re-rank.
	Trace *search.Trace
	// Generation is the ID of the deployment generation the request
	// held, which every tier computes its answer on; an engine on its
	// own is generation 0.
	Generation uint64
}

// Ranking projects the results onto bare (topic ID, score) rows — the
// shape search.TopK and the baselines rank in.
func (a Answer) Ranking() []search.Result {
	if len(a.Results) == 0 {
		return nil
	}
	out := make([]search.Result, len(a.Results))
	for i, r := range a.Results {
		out[i] = search.Result{Topic: r.Topic.ID, Score: r.Score}
	}
	return out
}

// Runner is the query surface: *Engine and the multi-shard
// *shard.Router both implement it, and nothing above them can tell the
// difference.
type Runner interface {
	Run(ctx context.Context, q Query) (Answer, error)
}

// RunMany answers q for every user in users — the shape of the paper's
// personalized-service use cases (ad targeting segments thousands of
// candidate customers with one campaign query) — on a pool of workers
// (≤ 0: GOMAXPROCS) calling r.Run. The summary cache and its
// singleflight make the q-related summaries materialize once however
// many users race for them. Answers are indexed like users.
//
// Canceling ctx stops every worker, and any failure surfaces as the
// first error observed: a batch mixing valid and invalid users returns
// (nil, err), never partial results.
func RunMany(ctx context.Context, r Runner, q Query, users []graph.NodeID, workers int) ([]Answer, error) {
	out := make([]Answer, len(users))
	err := forEachIndex(ctx, len(users), workers, func(i int) error {
		uq := q
		uq.User = users[i]
		var err error
		if out[i], err = r.Run(ctx, uq); err != nil {
			return fmt.Errorf("user %d: %w", users[i], err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
