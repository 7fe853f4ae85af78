package search

import (
	"context"
	"slices"
	"sync"
	"time"

	"repro/internal/prob"
)

// Stats describes one Drive run for the caller's instrumentation.
type Stats struct {
	// Depth is how many expansion levels ran (Algorithm 11).
	Depth int
	// Frozen counts sessions dropped mid-run because the influence upper
	// bound pruned every one of their topics.
	Frozen int
	// Truncated is how many expansion levels had their frontier cut to
	// MaxFrontier best-first: the widest session's count, since a frozen
	// session stopped counting early.
	Truncated int
	// Merge is the time spent in the cross-session steps: ranking the
	// topics, the global k-th score, the undecided test, the result.
	Merge time.Duration
}

// Drive is the Algorithm 10 round loop, run over the sessions of one
// query (all opened for the same user on searchers with the same
// options; together they hold the q-related topics exactly once):
//
//	round: rank all topics → global k-th → per-session prune (shared
//	predicate, session-local frontier bound) → global undecided test →
//	stop expanding bound-pruned sessions → expand survivors one level.
//
// Session frontiers are identical (frontier evolution is
// topic-independent), so every per-topic decision is the one a single
// session over all the summaries would make, and the merged ranking is
// the same bit for bit however the topics are split. With more than one
// live session the expansions of a level run in parallel. k ≤ 0 or
// k > the topic count ranks every topic. tr, when non-nil, receives
// diagnostics. Drive does not close the sessions.
func Drive(ctx context.Context, sessions []*Session, k int, tr *Trace) ([]Result, Stats, error) {
	var st Stats
	total := 0
	for _, ss := range sessions {
		total += len(ss.states)
	}
	if total == 0 {
		return nil, st, ctx.Err()
	}
	if k <= 0 || k > total {
		k = total
	}
	first := sessions[0]
	opts := &first.s.opts
	sc := first.sc
	// live is filtered in place below; the arena keeps the full-length
	// slice so closing the first session drops every pointer in it.
	sc.live = append(sc.live[:0], sessions...)
	live := sc.live
	// ranked points at every topic's state. The states stay put for the
	// whole run, so they are gathered once and re-sorted each round.
	ranked := sc.ranked[:0]
	for _, ss := range sessions {
		for i := range ss.states {
			ranked = append(ranked, &ss.states[i])
		}
	}
	sc.ranked = ranked

	for {
		if err := ctx.Err(); err != nil {
			return nil, st, err
		}
		t0 := time.Now()
		// min(T^k), the k-th best accumulated score across all topics
		// (pruned topics keep their final scores and still occupy ranks —
		// pruning only asserts they cannot *rise*).
		slices.SortFunc(ranked, byRank)
		kth := ranked[k-1].score
		frontier := 0
		for _, ss := range live {
			ss.prune(kth, st.Depth)
			frontier = max(frontier, len(ss.cur))
		}
		undecided := countUndecided(ranked, k, opts.DisablePruning)
		st.Merge += time.Since(t0)
		if undecided == 0 || frontier == 0 || st.Depth >= opts.MaxExpandDepth {
			break
		}
		if !opts.DisablePruning {
			// A session with every topic pruned can never change its
			// scores again: its standings are final, stop expanding it.
			kept := live[:0]
			for _, ss := range live {
				if ss.alive() {
					kept = append(kept, ss)
				} else {
					st.Frozen++
				}
			}
			live = kept
			if len(live) == 0 {
				break
			}
		}
		if err := expandAll(ctx, live); err != nil {
			return nil, st, err
		}
		if tr != nil {
			tr.FrontierSizes = append(tr.FrontierSizes, live[0].expanded)
		}
		st.Depth++
	}

	// The best k of the rank-sorted topics, freshly allocated — the
	// result outlives the scratch arena.
	t0 := time.Now()
	res := make([]Result, k)
	for i := range res {
		res[i] = Result{Topic: ranked[i].id, Score: ranked[i].score}
	}
	st.Merge += time.Since(t0)
	for _, ss := range sessions {
		st.Truncated = max(st.Truncated, ss.truncated)
	}
	if tr != nil {
		tr.fill(sessions, res, st.Depth)
	}
	return res, st, nil
}

// expandAll runs one expansion level on every live session, in parallel
// when there is more than one.
func expandAll(ctx context.Context, live []*Session) error {
	if len(live) == 1 {
		return live[0].expand(ctx)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(live))
	for i, ss := range live {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = ss.expand(ctx)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
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
