package search

// Search tracing: Drive, handed a Trace, runs the same Algorithm 10/11
// search but records per-topic and per-level diagnostics — which topics were
// pruned and when, how much representative mass was consumed, how the
// expansion frontier evolved. Operators use it to tune θ, the expansion
// depth and the representative budget; tests use it to assert the
// algorithm's internal behaviour, not just its output.

import (
	"context"

	"repro/internal/graph"
	"repro/internal/summary"
	"repro/internal/topics"
)

// TopicTrace is the post-search state of one q-related topic.
type TopicTrace struct {
	Topic topics.TopicID
	Score float64
	// ConsumedReps of TotalReps representatives were found in Γ rows.
	ConsumedReps, TotalReps int
	// RemainingWeight is the final W_r[t]: representative mass never
	// located near the user.
	RemainingWeight float64
	// Pruned reports whether the upper-bound rule eliminated the topic,
	// and PrunedAtDepth at which expansion level (0 = before any
	// expansion).
	Pruned        bool
	PrunedAtDepth int
}

// Trace is the full diagnostic record of one search.
type Trace struct {
	Results []Result
	Topics  []TopicTrace
	// GammaSize is |Γ(user)|; FrontierSizes[i] is the frontier entering
	// expansion level i (after best-first truncation).
	GammaSize     int
	FrontierSizes []int
	// Depth is how many expansion levels actually ran.
	Depth int
}

// TopKTrace is TopK with diagnostics. It returns the same results as TopK
// for the same inputs. Like TopK it is one session handed to Drive, kept
// under its own name for the frozen benchmark/ harness.
func (s *Searcher) TopKTrace(ctx context.Context, user graph.NodeID, summaries []summary.Summary, k int) (*Trace, error) {
	ss, err := s.NewSession(ctx, user, summaries)
	if err != nil {
		return nil, err
	}
	defer ss.Close()
	tr := &Trace{}
	_, _, err = Drive(ctx, ss, k, tr)
	return tr, err
}

// fill records the final state of a driven run: per-topic traces in
// the session's summary order.
func (tr *Trace) fill(ss *Session, res []Result, depth int) {
	tr.Results, tr.Depth = res, depth
	tr.GammaSize = ss.gammaSize
	for i := range ss.states {
		st := &ss.states[i]
		consumed := 0
		for _, c := range st.consumed {
			if c {
				consumed++
			}
		}
		tr.Topics = append(tr.Topics, TopicTrace{
			Topic:           st.id,
			Score:           st.score,
			ConsumedReps:    consumed,
			TotalReps:       len(st.reps),
			RemainingWeight: st.wr,
			Pruned:          st.pruned,
			PrunedAtDepth:   int(st.prunedAt),
		})
	}
}
