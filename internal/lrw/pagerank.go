// Package lrw implements LRW-A, the L-length random-walk social
// summarization of Section 4 (Algorithms 7–9): representative nodes are
// ranked by a diversified, vertex-reinforced PageRank run for L iterations
// (Equation 5) using the time-variant visiting frequencies H[L][n] sampled
// by Algorithm 6, and the local influence of the topic nodes is migrated
// onto them with forward/backward absorbing random walks (Algorithm 8).
package lrw

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/randwalk"
	"repro/internal/topics"
)

// ctxStride is how many inner-loop nodes are processed between context
// checks; large enough that the check is free, small enough that a
// cancellation lands within microseconds on any realistic graph.
const ctxStride = 8192

// Options configures the LRW-A summarizer.
type Options struct {
	// Lambda is the damping factor λ of Equation 5 (weight of the
	// reinforced propagation term vs the topic prior). Default 0.85.
	Lambda float64
	// Mu is the fraction μ ∈ (0,1) of |V_t| selected as representatives
	// (Algorithm 7 line 25: cutPosition ← μ·|V_t|). Default 0.2.
	Mu float64
	// RepCount, when positive, overrides Mu with an absolute
	// representative-set size, matching the paper's experiments that
	// materialize a fixed 1000–6000 representatives per topic.
	RepCount int
}

func (o *Options) fill() {
	if o.Lambda <= 0 || o.Lambda >= 1 {
		o.Lambda = 0.85
	}
	if o.Mu <= 0 || o.Mu >= 1 {
		o.Mu = 0.2
	}
}

// hFloor keeps the reinforcement strictly positive: a node never visited
// at iteration i would otherwise zero out every transition into it and
// strand rank mass. The floor is far below 1/R, so sampled frequencies
// always dominate it.
const hFloor = 1e-9

// scoresLanes computes the final diversified PageRank vector of Equation 5
// for up to Lanes topics in one pass:
//
//	P_{T+1}(v) = (1−λ)·P*(v) + λ·Σ_{(u,v)∈E} P0(u,v)·N_T(v)/D_T(u) · P_T(u)
//
// run for the walk index's L iterations, with N_T(v) = H[T][v] (the sampled
// time-variant visiting frequency) and P*(v) the uniform topic prior over
// vts[j]. Lane j of the result is vts[j]'s score per graph node, whatever
// shares the pass, and lanes past len(vts) stay zero. Every vts[j] must be
// non-empty; ctx is checked between iterations. The result aliases sc's
// lane buffers, valid until sc is reused or returned to the pool.
func scoresLanes(ctx context.Context, g *graph.Graph, walks *randwalk.Index, vts [][]graph.NodeID, opt Options, sc *scratch) ([][Lanes]float64, error) {
	opt.fill()
	n := g.NumNodes()
	sc.ensureNodes(n)
	pStar := sc.pStar
	clear(pStar)
	for j, vt := range vts {
		prior := 1.0 / float64(len(vt))
		for _, v := range vt {
			pStar[v][j] = prior
		}
	}
	// Algorithm 7 line 9 literally sets PR[v].previous ← 1, but with n
	// nodes that injects total mass n while the personalization term
	// (1−λ)·P* injects mass (1−λ): at any realistic n the topic prior is
	// drowned out and every topic selects the same global hubs. We
	// initialize with the prior itself — the standard personalized-
	// PageRank start — so the rank vector stays a distribution and the
	// L-iteration rank is topic-sensitive (see DESIGN.md §4).
	//
	// prev/cur ping-pong: every cur[v] is assigned each iteration, so
	// neither buffer needs clearing between pooled reuses.
	prev, cur := sc.prev, sc.cur
	copy(prev, pStar)
	// Everything in the propagation term but prev depends on the iteration
	// and the edge only, so it comes from the scratch's per-(graph, walks)
	// plan, built once and shared by every topic this scratch summarizes.
	if err := sc.plan.ensure(ctx, g, walks); err != nil {
		return nil, err
	}
	for i := 1; i <= walks.L; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sc.plan.propagate4(i, opt.Lambda, pStar, prev, cur)
		prev, cur = cur, prev
	}
	return prev, nil
}

// selectReps is Algorithm 7's cut over one score per graph node for a
// topic of topicNodes nodes: the top-scored nodes, highest first. The
// selected count is opt.RepCount if positive, else ⌈μ·|V_t|⌉ (minimum 1),
// capped at the number of graph nodes; opt must be filled. The returned slice aliases
// sc.order (sized by ensureNodes) and is valid until sc is reused or
// returned to the pool.
func selectReps(ctx context.Context, scores []float64, topicNodes int, opt Options, sc *scratch) ([]graph.NodeID, error) {
	n := len(scores)
	repCount := opt.RepCount
	if repCount <= 0 {
		repCount = int(float64(opt.Mu*float64(topicNodes)) + 0.999999)
	}
	if repCount < 1 {
		repCount = 1
	}
	if repCount > n {
		repCount = n
	}

	// Highest score first; ties by node ID for determinism. The explicit
	// >/< branches keep the comparator NaN-safe: a NaN score (impossible
	// after Clamp01, but cheap to defend) falls through to the ID
	// tiebreak instead of poisoning the order relation. Because the order
	// is a strict total order (node IDs are unique), the top repCount
	// prefix is unique — so selecting the best repCount nodes with a
	// bounded heap and sorting just those yields exactly what sorting all
	// n nodes would, at O(n + k·log k) comparisons instead of O(n·log n).
	// worse(a, b) reports a ordering strictly after b.
	worse := func(a, b graph.NodeID) bool {
		sa, sb := scores[a], scores[b]
		switch {
		case sa < sb:
			return true
		case sa > sb:
			return false
		}
		return a > b
	}
	// top is a binary max-heap under worse: top[0] is the worst kept node.
	top := sc.order[:0]
	for v := 0; v < n; v++ {
		if v%ctxStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		id := graph.NodeID(v)
		if len(top) < repCount {
			top = append(top, id)
			for c := len(top) - 1; c > 0; {
				p := (c - 1) / 2
				if !worse(top[c], top[p]) {
					break
				}
				top[p], top[c] = top[c], top[p]
				c = p
			}
			continue
		}
		if !worse(top[0], id) {
			continue
		}
		top[0] = id
		for c := 0; ; {
			l, r := 2*c+1, 2*c+2
			w := c
			if l < repCount && worse(top[l], top[w]) {
				w = l
			}
			if r < repCount && worse(top[r], top[w]) {
				w = r
			}
			if w == c {
				break
			}
			top[c], top[w] = top[w], top[c]
			c = w
		}
	}
	sc.order = top[:0]
	slices.SortFunc(top, func(a, b graph.NodeID) int {
		sa, sb := scores[a], scores[b]
		switch {
		case sa > sb:
			return -1
		case sa < sb:
			return 1
		}
		return cmp.Compare(a, b)
	})
	return top, nil
}

func validateInputs(g *graph.Graph, space *topics.Space, walks *randwalk.Index) error {
	if g == nil || space == nil || walks == nil {
		return fmt.Errorf("lrw: nil graph, space or walk index")
	}
	if walks.NumNodes() != g.NumNodes() {
		return fmt.Errorf("lrw: walk index built over %d nodes, graph has %d", walks.NumNodes(), g.NumNodes())
	}
	return nil
}
