// Search sessions: the one Algorithm 10 state machine.
//
// A Session is one slice of a single Algorithm 10 run, opened over some
// of the q-related summaries and stepped one expansion level at a time
// by Drive (drive.go). Drive owns the two quantities a slice cannot
// compute alone — the k-th best score across *all* sessions and the
// global undecided count — and feeds the k-th score back into prune
// each round. Everything else (round-1 consumption, the frontier,
// visited marking, per-level expansion) is topic-set independent: it
// depends only on the user, Γ and the visited set, so every session's
// frontier evolves identically whether the summaries are split 1 or 31
// ways. A single engine opens one session over all of them; the shard
// router opens one per owning shard. The byte-identity golden and the
// N ∈ {1, 2, 7, 31} differential in internal/shard pin that any
// partition of the summaries produces the same answer.
package search

import (
	"context"
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/prob"
	"repro/internal/summary"
)

// Session is an open TopK run. It is not safe for concurrent use; Drive
// serializes rounds. The session lives in the searcher's pooled scratch
// arena: Close must be called exactly once, and the session must not be
// touched afterwards.
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
	busy      time.Duration
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

// ExpandTime reports the wall time this session has spent expanding —
// the shard router's per-shard latency.
func (ss *Session) ExpandTime() time.Duration { return ss.busy }

// prune applies Algorithm 10's two pruning conditions (lines 17–20) with
// the global k-th score and this session's own frontier bound: (1) no
// remaining representatives, or (2) the upper bound W_r·maxEP + heap[t]
// cannot reach the k-th score. depth is the expansion level the run is
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
		if prob.ApproxEq(st.wr, 0, 1e-15) || kth >= st.wr*maxEP+st.score {
			st.pruned = true
			st.prunedAt = int32(depth)
		}
	}
}

// alive reports whether any topic in this session could still change
// rank: unpruned (or, exhaustively, with representative mass left). A
// dead session's scores are final — consume skips pruned states — so
// Drive stops expanding it: the slice is cancelled mid-run by the
// influence bound.
func (ss *Session) alive() bool {
	for i := range ss.states {
		st := &ss.states[i]
		if ss.s.opts.DisablePruning {
			if !prob.ApproxEq(st.wr, 0, 1e-15) {
				return true
			}
		} else if !st.pruned {
			return true
		}
	}
	return false
}

// expand runs one level of Algorithm 11: truncate the frontier, probe Γ
// for every frontier node, consume into surviving topics and assemble
// the next frontier.
func (ss *Session) expand(ctx context.Context) error {
	t0 := time.Now()
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
	ss.busy += time.Since(t0)
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
