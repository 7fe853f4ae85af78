// Package influence implements the paper's formal influence model
// (Definition 1) exactly: the influence of topic t on user v is
//
//	I(t, v) = (1/|V_t|) · Σ_{u ∈ V_t} Σ_{p ∈ P_u^v} Pr(p)
//
// where P_u^v are the *simple paths* from u to v and Pr(p) multiplies the
// transition probabilities along p. Enumeration is exponential, so this
// package is an oracle for small graphs: tests use it to quantify how the
// practical estimators (BaseMatrix's length-bounded walks, the θ-bounded
// propagation index, the summarization-based search) approximate the
// definition, and the I* evaluator mirrors Definition 1's summarized form.
package influence

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/summary"
	"repro/internal/topics"
)

// Options bounds the oracle.
type Options struct {
	// MaxHops bounds path length (≤ 0: unbounded — only safe on very
	// small graphs).
	MaxHops int
	// MinProb prunes paths below a probability floor (0: keep all).
	// Definition 1 keeps all paths; a floor mirrors the θ-truncation of
	// the propagation index for comparison experiments.
	MinProb float64
}

// Exact computes I(t, v) by exhaustive simple-path enumeration from every
// topic node to the user.
func Exact(g *graph.Graph, space *topics.Space, t topics.TopicID, v graph.NodeID, opt Options) (float64, error) {
	if g == nil || space == nil {
		return 0, fmt.Errorf("influence: nil graph or space")
	}
	if !space.Valid(t) {
		return 0, fmt.Errorf("influence: unknown topic %d", t)
	}
	if !g.Valid(v) {
		return 0, fmt.Errorf("influence: user %d outside graph", v)
	}
	vt := space.Nodes(t)
	if len(vt) == 0 {
		return 0, nil
	}
	total := 0.0
	for _, u := range vt {
		total += PathSum(g, u, v, opt)
	}
	return total / float64(len(vt)), nil
}

// ExactSummarized computes I*(t, v) = Σ_{u ∈ V*} weight(u,t) · Σ_p Pr(p):
// Definition 1's summarized influence, with the same exhaustive simple-
// path semantics. Comparing Exact and ExactSummarized isolates the
// summarization error from the index/search truncation error.
func ExactSummarized(g *graph.Graph, sum summary.Summary, v graph.NodeID, opt Options) (float64, error) {
	if g == nil {
		return 0, fmt.Errorf("influence: nil graph")
	}
	if !g.Valid(v) {
		return 0, fmt.Errorf("influence: user %d outside graph", v)
	}
	total := 0.0
	for _, rep := range sum.Reps {
		if rep.Weight == 0 {
			continue
		}
		total += float64(rep.Weight * PathSum(g, rep.Node, v, opt))
	}
	return total, nil
}

// PathSum returns Σ_{p ∈ P_u^v} Pr(p) over simple paths from u to v
// (0 when u == v: a length-0 path carries no influence).
func PathSum(g *graph.Graph, u, v graph.NodeID, opt Options) float64 {
	if u == v || !g.Valid(u) || !g.Valid(v) {
		return 0
	}
	e := pathEnum{g: g, target: v, opt: opt, onPath: map[graph.NodeID]bool{u: true}}
	e.walk(u, 1, 0)
	return e.total
}

type pathEnum struct {
	g      *graph.Graph
	target graph.NodeID
	opt    Options
	onPath map[graph.NodeID]bool
	total  float64
}

func (e *pathEnum) walk(node graph.NodeID, prob float64, depth int) {
	if e.opt.MaxHops > 0 && depth >= e.opt.MaxHops {
		return
	}
	nbrs, ws := e.g.OutNeighbors(node)
	for k, next := range nbrs {
		p := float64(prob * ws[k])
		if e.opt.MinProb > 0 && p < e.opt.MinProb {
			continue
		}
		if next == e.target {
			e.total += p
			continue
		}
		if e.onPath[next] {
			continue
		}
		e.onPath[next] = true
		e.walk(next, p, depth+1)
		delete(e.onPath, next)
	}
}

// SummarizationError returns Definition 1's objective for one user:
// |I(t,v) − I*(t,v)| — the quantity the representative selection minimizes
// (summed over all users in the definition).
func SummarizationError(g *graph.Graph, space *topics.Space, sum summary.Summary, v graph.NodeID, opt Options) (float64, error) {
	exact, err := Exact(g, space, sum.Topic, v, opt)
	if err != nil {
		return 0, err
	}
	approx, err := ExactSummarized(g, sum, v, opt)
	if err != nil {
		return 0, err
	}
	diff := exact - approx
	if diff < 0 {
		diff = -diff
	}
	return diff, nil
}
