// Package search implements the online dynamic top-k PIT-Search of
// Section 5.2 (Algorithm 10 PERSONALIZED_SEARCH and Algorithm 11 EXPAND).
// Given the q-related topics, their pre-materialized summarizations
// (representative node sets with local weights) and the personalized
// propagation index Γ, it returns the k most influential topics for the
// query user, pruning topics whose influence upper bound cannot reach the
// current top-k and expanding potential-marked index nodes only when the
// result set is still undecided.
//
// The searcher is built for high query rates: all per-query state
// (topic states, consumed marks, the visited set, the expansion
// frontier, ranking scratch) lives in a sync.Pool-recycled scratch
// arena, so a warm search allocates only its result slice. Summary rep
// slices arrive sorted by node ID — established once at summary build
// (summary.New) and checked by Summary.Validate — so the intersection
// with Γ rows needs no per-query sorting.
package search

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/graph"
	"repro/internal/prob"
	"repro/internal/propidx"
	"repro/internal/summary"
	"repro/internal/topics"
)

// Result is one entry of the top-k PIT list.
type Result struct {
	Topic topics.TopicID
	Score float64 // aggregated influence I*(t, v) of the topic on the user
}

// Options tunes the search.
type Options struct {
	// MaxExpandDepth bounds the EXPAND recursion (Algorithm 11). Each
	// level follows potential-marked nodes one Γ-hop further from the
	// user. Default 3.
	MaxExpandDepth int
	// MaxFrontier bounds how many potential-marked nodes are expanded per
	// level, best-first by accumulated propagation — the paper's goal of
	// "probing as few nodes as possible". The pruning bound maxEP is
	// still computed over the full frontier, so pruning stays sound with
	// respect to the truncated exploration. Default 256. Negative
	// disables the bound.
	MaxFrontier int
	// DisablePruning turns off the upper-bound pruning and expands the
	// frontier exhaustively; used by tests to verify that pruning never
	// changes the result set.
	DisablePruning bool
}

func (o *Options) fill() {
	if o.MaxExpandDepth <= 0 {
		o.MaxExpandDepth = 3
	}
	if o.MaxFrontier == 0 {
		o.MaxFrontier = 256
	}
}

// Searcher runs top-k PIT-Search queries against a fixed propagation
// index. It is safe for concurrent use: the index is immutable and all
// mutable per-query state lives in a pooled scratch arena.
type Searcher struct {
	prop *propidx.Index
	opts Options
	pool sync.Pool // *scratch
}

// New returns a Searcher over the propagation index.
func New(prop *propidx.Index, opts Options) (*Searcher, error) {
	if prop == nil {
		return nil, fmt.Errorf("search: nil propagation index")
	}
	opts.fill()
	return &Searcher{prop: prop, opts: opts}, nil
}

// topicState tracks one q-related topic through the search. reps aliases
// the summary's rep slice (sorted by node ID at summary build); consumed
// is a scratch-arena subslice parallel to it.
type topicState struct {
	id       topics.TopicID
	prunedAt int32 // expansion level at which the bound pruned the topic
	reps     []summary.WeightedNode
	consumed []bool
	score    float64 // heap[t]: influence accumulated so far
	wr       float64 // W_r[t]: total weight of unconsumed reps
	pruned   bool
}

// expandNode is one frontier entry: a potential-marked index node u with
// the accumulated propagation from u to the query user along the chain of
// Γ lookups that discovered it.
type expandNode struct {
	node graph.NodeID
	acc  float64
}

// scratch is the reusable per-query state arena. Pool recycling keeps
// the warm-path allocation count independent of graph and frontier
// size; everything here is reset (cheaply) at the start of each query.
type scratch struct {
	states   []topicState
	consumed []bool // flat backing for every state's consumed marks
	// visited is an epoch-stamped set over index nodes: visited[u] ==
	// epoch means u was seen this query. Bumping epoch resets the set in
	// O(1) instead of clearing or reallocating a map.
	visited  []uint32
	epoch    uint32
	frontier []expandNode
	next     []expandNode
	// sess is the session handed out by NewSession: it lives in the
	// arena so a warm TopK allocates nothing but its result slice.
	sess Session
	// ranked is Drive's ranking scratch.
	ranked []*topicState
}

// getScratch fetches (or creates) a scratch arena sized for this query.
func (s *Searcher) getScratch(numTopics, totalReps int) *scratch {
	sc, _ := s.pool.Get().(*scratch)
	if sc == nil {
		sc = &scratch{}
	}
	if cap(sc.states) >= numTopics {
		sc.states = sc.states[:numTopics]
	} else {
		sc.states = make([]topicState, numTopics)
	}
	if cap(sc.consumed) >= totalReps {
		sc.consumed = sc.consumed[:totalReps]
		clear(sc.consumed)
	} else {
		sc.consumed = make([]bool, totalReps)
	}
	if n := s.prop.NumNodes(); len(sc.visited) < n {
		sc.visited = make([]uint32, n)
		sc.epoch = 0
	}
	sc.epoch++
	if sc.epoch == 0 { // uint32 wraparound: stale stamps could collide
		clear(sc.visited)
		sc.epoch = 1
	}
	return sc
}

// dropRefs clears every topicState, Drive's pointers and the arena's
// session before the scratch returns to the pool. The states alias
// summary rep slices (and consumed sub-slices whose parent is the
// arena's flat backing); without this a pooled
// scratch would pin the last query's summaries — including ones since
// invalidated or replaced — against GC for as long as the arena idles
// in the pool. Clearing is O(len(states)) stores and never allocates,
// and every query clears the exact prefix it used, so no stale entry
// survives in the tail either.
func (sc *scratch) dropRefs() {
	clear(sc.states)
	clear(sc.ranked)
	sc.sess = Session{}
}

// visit marks u as seen this query and reports whether it was new.
func (sc *scratch) visit(u graph.NodeID) bool {
	if sc.visited[u] == sc.epoch {
		return false
	}
	sc.visited[u] = sc.epoch
	return true
}

// TopK runs Algorithm 10 for the query user over the given summaries (one
// per q-related topic) and returns the k most influential topics, highest
// score first (ties by topic ID). k ≤ 0 or k ≥ len(summaries) returns all
// topics ranked. ctx is checked before each expansion level and every
// few frontier nodes inside EXPAND; a done context aborts with ctx.Err().
//
// It is one Session driven by Drive — the package's only round loop.
// The frozen benchmark/ harness times this entry point, which is why it
// keeps its own name instead of asking callers to open the session.
func (s *Searcher) TopK(ctx context.Context, user graph.NodeID, summaries []summary.Summary, k int) ([]Result, error) {
	ss, err := s.NewSession(ctx, user, summaries)
	if err != nil {
		return nil, err
	}
	defer ss.Close()
	res, _, err := Drive(ctx, ss, k, nil)
	return res, err
}

// truncateFrontier keeps the MaxFrontier highest-accumulated-propagation
// entries (deterministically: ties by node ID).
func (s *Searcher) truncateFrontier(frontier []expandNode) []expandNode {
	if s.opts.MaxFrontier < 0 || len(frontier) <= s.opts.MaxFrontier {
		return frontier
	}
	slices.SortFunc(frontier, func(a, b expandNode) int {
		switch {
		case a.acc > b.acc:
			return -1
		case a.acc < b.acc:
			return 1
		case a.node < b.node:
			return -1
		case a.node > b.node:
			return 1
		default:
			return 0
		}
	})
	return frontier[:s.opts.MaxFrontier]
}

// consume intersects the topic's remaining representative set with a Γ
// row (vInner ← S_i ∩ Γ), adding acc·prop(u)·weight(u) for every
// unconsumed representative found and removing it from the remaining set
// (S_i ← S_i \ vInner). Both sides are sorted — reps once at summary
// build, Γ rows at index build — so when the rep set is much smaller
// than the Γ row (the whole point of social summarization) a per-rep
// binary search beats the linear merge.
func (s *Searcher) consume(st *topicState, srcs []graph.NodeID, props []float64, acc float64) {
	if st.pruned {
		return
	}
	if len(st.reps)*8 < len(srcs) {
		for i := range st.reps {
			if st.consumed[i] {
				continue
			}
			if j := findNode(srcs, st.reps[i].Node); j >= 0 {
				st.consumed[i] = true
				st.score += acc * props[j] * st.reps[i].Weight
				st.wr -= st.reps[i].Weight
			}
		}
	} else {
		i, j := 0, 0
		for i < len(st.reps) && j < len(srcs) {
			switch {
			case st.reps[i].Node < srcs[j]:
				i++
			case st.reps[i].Node > srcs[j]:
				j++
			default:
				if !st.consumed[i] {
					st.consumed[i] = true
					st.score += acc * props[j] * st.reps[i].Weight
					st.wr -= st.reps[i].Weight
				}
				i++
				j++
			}
		}
	}
	// W_r is a remainder of Validate-checked weights (nonnegative, total
	// ≤ 1 up to rounding); repeated subtraction can only leave rounding
	// noise outside [0,1].
	st.wr = prob.Clamp01(st.wr)
}

// findNode binary-searches a sorted node slice, returning the index of u
// or -1.
func findNode(srcs []graph.NodeID, u graph.NodeID) int {
	lo, hi := 0, len(srcs)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case srcs[mid] < u:
			lo = mid + 1
		case srcs[mid] > u:
			hi = mid
		default:
			return mid
		}
	}
	return -1
}

// collectFrontier appends the potential-marked entries of a Γ row, scaled
// by the accumulated propagation acc, to dst.
func collectFrontier(srcs []graph.NodeID, props []float64, potential []bool, acc float64, dst []expandNode) []expandNode {
	for i, p := range potential {
		if p {
			dst = append(dst, expandNode{node: srcs[i], acc: acc * props[i]})
		}
	}
	return dst
}

func maxAcc(frontier []expandNode) float64 {
	maxEP := 0.0
	for _, f := range frontier {
		if f.acc > maxEP {
			maxEP = f.acc
		}
	}
	return maxEP
}

// expandOnce is one level of Algorithm 11: every frontier node u
// contributes its Γ(u) row to all surviving topics, scaled by the
// accumulated propagation from u to the query user, and the next frontier
// is assembled (into dst) from u's own potential marks. ctx is checked
// every 64 frontier nodes so a canceled search stops probing Γ promptly.
func (s *Searcher) expandOnce(ctx context.Context, sc *scratch, states []topicState, frontier []expandNode, dst []expandNode) ([]expandNode, error) {
	for fi, f := range frontier {
		if fi%64 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		srcs, props, potential := s.prop.Gamma(f.node)
		for i := range states {
			s.consume(&states[i], srcs, props, f.acc)
		}
		for i, p := range potential {
			if p && sc.visit(srcs[i]) {
				dst = append(dst, expandNode{node: srcs[i], acc: f.acc * props[i]})
			}
		}
	}
	return dst, nil
}
