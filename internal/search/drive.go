package search

import (
	"context"
	"slices"

	"repro/internal/prob"
)

// Stats describes one Drive run for the caller's instrumentation.
type Stats struct {
	// Depth is how many expansion levels ran (Algorithm 11).
	Depth int
	// Truncated is how many expansion levels had their frontier cut to
	// MaxFrontier best-first.
	Truncated int
}

// Drive is the Algorithm 10 round loop over one session (opened on the
// query's q-related summaries for one user):
//
//	round: rank all topics → k-th score → prune (Algorithm 10's bound)
//	→ undecided test → expand the frontier one level.
//
// k ≤ 0 or k > the topic count ranks every topic. tr, when non-nil,
// receives diagnostics. Drive does not close the session.
func Drive(ctx context.Context, ss *Session, k int, tr *Trace) ([]Result, Stats, error) {
	var st Stats
	total := len(ss.states)
	if total == 0 {
		return nil, st, ctx.Err()
	}
	if k <= 0 || k > total {
		k = total
	}
	opts := &ss.s.opts
	// ranked points at every topic's state. The states stay put for the
	// whole run, so they are gathered once and re-sorted each round.
	ranked := ss.sc.ranked[:0]
	for i := range ss.states {
		ranked = append(ranked, &ss.states[i])
	}
	ss.sc.ranked = ranked

	for {
		if err := ctx.Err(); err != nil {
			return nil, st, err
		}
		// min(T^k), the k-th best accumulated score (pruned topics keep
		// their final scores and still occupy ranks — pruning only
		// asserts they cannot *rise*).
		slices.SortFunc(ranked, byRank)
		ss.prune(ranked[k-1].score, st.Depth)
		if countUndecided(ranked, k, opts.DisablePruning) == 0 || len(ss.cur) == 0 || st.Depth >= opts.MaxExpandDepth {
			break
		}
		if err := ss.expand(ctx); err != nil {
			return nil, st, err
		}
		if tr != nil {
			tr.FrontierSizes = append(tr.FrontierSizes, ss.expanded)
		}
		st.Depth++
	}

	// The best k of the rank-sorted topics, freshly allocated — the
	// result outlives the scratch arena.
	res := make([]Result, k)
	for i := range res {
		res[i] = Result{Topic: ranked[i].id, Score: ranked[i].score}
	}
	st.Truncated = ss.truncated
	if tr != nil {
		tr.fill(ss, res, st.Depth)
	}
	return res, st, nil
}

// byRank orders topics the way the final ranking does: score
// descending, ties by topic ID ascending.
func byRank(a, b *topicState) int {
	switch {
	case a.score > b.score:
		return -1
	case a.score < b.score:
		return 1
	case a.id < b.id:
		return -1
	case a.id > b.id:
		return 1
	default:
		return 0
	}
}

// countUndecided returns |T′ \ T^k|, the test driving EXPAND (Algorithm
// 10 line 21): the unpruned topics outside the top-k positions of the
// rank-sorted list. In exhaustive mode every topic with remaining
// representative mass counts as undecided, so expansion proceeds until
// the frontier or the rep sets are exhausted.
func countUndecided(ranked []*topicState, k int, exhaustive bool) int {
	undecided := 0
	if exhaustive {
		for _, st := range ranked {
			if !prob.ApproxEq(st.wr, 0, 1e-15) {
				undecided++
			}
		}
		return undecided
	}
	for _, st := range ranked[k:] {
		if !st.pruned {
			undecided++
		}
	}
	return undecided
}
