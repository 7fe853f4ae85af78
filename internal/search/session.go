// Search sessions: the one Algorithm 10 state machine.
//
// A Session is one Algorithm 10 run, opened over the q-related
// summaries of a query and stepped one expansion level at a time by
// Drive (drive.go): round-1 consumption, the frontier, visited marking
// and per-level expansion live here; Drive ranks the topics, feeds the
// k-th score back into prune and decides when to stop. Expansion
// depends only on the user, Γ and the visited set, never on a topic, so
// a query runs one session over all of its summaries however they were
// gathered — the shard router collects each owning shard's summaries
// and opens one session on them.
package search

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/prob"
	"repro/internal/summary"
)

// Session is an open TopK run. It is not safe for concurrent use. The
// session lives in the searcher's pooled scratch arena: Close must be
// called exactly once, and the session must not be touched afterwards.
type Session struct {
	s         *Searcher
	sc        *scratch
	states    []topicState
	sums      []summary.Summary
	cur       []expandNode
	spare     []expandNode
	truncated int
	gammaSize int // |Γ(user)|, for Trace
	expanded  int // frontier size the last expand probed (after truncation)
}

// NewSession opens a session for user over the given summaries: topic
// state setup, the round-1 consume over Γ(user) (Algorithm 10 lines
// 4–13), the initial frontier Γ*(v) and visited seeding. Zero summaries
// open a valid session with nothing to rank.
func (s *Searcher) NewSession(ctx context.Context, user graph.NodeID, summaries []summary.Summary) (*Session, error) {
	if int(user) < 0 || int(user) >= s.prop.NumNodes() {
		return nil, fmt.Errorf("search: user %d outside the indexed graph", user)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	totalReps := 0
	for i := range summaries {
		totalReps += len(summaries[i].Reps)
	}
	sc := s.getScratch(len(summaries), totalReps)
	ss := &sc.sess
	*ss = Session{s: s, sc: sc, states: sc.states, sums: summaries}
	srcs, props, potential := s.prop.Gamma(user)
	ss.gammaSize = len(srcs)
	off := 0
	for i := range summaries {
		if err := ctx.Err(); err != nil {
			ss.Close()
			return nil, err
		}
		sum := &summaries[i]
		ss.states[i] = topicState{
			id:       sum.Topic,
			reps:     sum.Reps,
			consumed: sc.consumed[off : off+len(sum.Reps)],
			wr:       sum.TotalWeight(),
		}
		off += len(sum.Reps)
		s.consume(&ss.states[i], srcs, props, 1.0)
	}
	ss.cur = collectFrontier(srcs, props, potential, 1.0, sc.frontier[:0])
	ss.spare = sc.next[:0]
	sc.visit(user)
	for _, f := range ss.cur { //pitlint:ignore ctxloop bounded visited-bit marking pass with no nested work; ctx was checked in the consume loop just above
		sc.visit(f.node)
	}
	return ss, nil
}

// Summaries returns the summaries the session runs over, indexed like
// the slice it was opened with — the diversification post-pass reuses
// them instead of going back to the cache.
func (ss *Session) Summaries() []summary.Summary { return ss.sums }

// prune applies Algorithm 10's two pruning conditions (lines 17–20) with
// the k-th score and the frontier bound: (1) no remaining
// representatives, or (2) the upper bound W_r·maxEP + heap[t] cannot
// reach the k-th score. depth is the expansion level the run is
// at, recorded for Trace. No-op in exhaustive mode.
func (ss *Session) prune(kth float64, depth int) {
	if ss.s.opts.DisablePruning {
		return
	}
	maxEP := maxAcc(ss.cur)
	for i := range ss.states {
		st := &ss.states[i]
		if st.pruned {
			continue
		}
		if prob.ApproxEq(st.wr, 0, 1e-15) || kth >= float64(st.wr*maxEP)+st.score {
			st.pruned = true
			st.prunedAt = int32(depth)
		}
	}
}

// expand runs one level of Algorithm 11: truncate the frontier, probe Γ
// for every frontier node, consume into surviving topics and assemble
// the next frontier.
func (ss *Session) expand(ctx context.Context) error {
	untruncated := len(ss.cur)
	ss.cur = ss.s.truncateFrontier(ss.cur)
	if len(ss.cur) < untruncated {
		ss.truncated++
	}
	ss.expanded = len(ss.cur)
	next, err := ss.s.expandOnce(ctx, ss.sc, ss.states, ss.cur, ss.spare[:0])
	if err != nil {
		return err
	}
	ss.cur, ss.spare = next, ss.cur
	return nil
}

// Close releases the scratch arena (and with it the session) back to the
// searcher's pool. An unclosed session pins its summaries until GC.
func (ss *Session) Close() {
	sc, s := ss.sc, ss.s
	sc.frontier, sc.next = ss.cur[:0], ss.spare[:0]
	sc.dropRefs()
	s.pool.Put(sc)
}
