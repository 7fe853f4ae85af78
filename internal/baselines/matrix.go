package baselines

// BaseMatrix: exact topic influence by sparse matrix–vector iteration.
// For each q-related topic t, the local weight vector x₀ (1/|V_t| on every
// topic node) is propagated through the transition matrix A = Λ for
// Iterations steps, and the influence of t on user v is Σ_{i=1..L}(x₀Aⁱ)[v]
// — the probability mass of all length-≤L walks from topic nodes to v.
// This is the most faithful realization of Definition 1 and serves as the
// ground truth of §6.4 (the paper sets the iteration length to 6).

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/prob"
	"repro/internal/search"
	"repro/internal/topics"
)

// Matrix is the BaseMatrix ranker.
type Matrix struct {
	g          *graph.Graph
	space      *topics.Space
	iterations int

	// reusable propagation buffers (one query at a time; the ranker is
	// not safe for concurrent use).
	cur, next []float64
}

// NewMatrix returns a BaseMatrix ranker. iterations ≤ 0 defaults to the
// paper's 6.
func NewMatrix(g *graph.Graph, space *topics.Space, iterations int) (*Matrix, error) {
	if g == nil || space == nil {
		return nil, fmt.Errorf("baselines: nil graph or space")
	}
	if iterations <= 0 {
		iterations = 6
	}
	return &Matrix{
		g:          g,
		space:      space,
		iterations: iterations,
		cur:        make([]float64, g.NumNodes()),
		next:       make([]float64, g.NumNodes()),
	}, nil
}

// Influence computes the exact propagated influence of topic t on user.
func (m *Matrix) Influence(t topics.TopicID, user graph.NodeID) float64 {
	vt := m.space.Nodes(t)
	if len(vt) == 0 {
		return 0
	}
	for i := range m.cur {
		m.cur[i] = 0
		m.next[i] = 0
	}
	w0 := 1.0 / float64(len(vt))
	for _, v := range vt {
		m.cur[v] = w0
	}
	total := 0.0
	for it := 0; it < m.iterations; it++ {
		for u := 0; u < m.g.NumNodes(); u++ {
			xu := m.cur[u]
			if prob.IsZero(xu) {
				continue
			}
			nbrs, ws := m.g.OutNeighbors(graph.NodeID(u))
			for k, v := range nbrs {
				m.next[v] += float64(xu * ws[k])
			}
		}
		total += m.next[user]
		m.cur, m.next = m.next, m.cur
		for i := range m.next {
			m.next[i] = 0
		}
	}
	return total
}

// TopK implements Ranker.
func (m *Matrix) TopK(user int32, related []topics.TopicID, k int) ([]search.Result, error) {
	if !m.g.Valid(user) {
		return nil, fmt.Errorf("baselines: user %d outside graph", user)
	}
	scores := make([]float64, len(related))
	for i, t := range related {
		if !m.space.Valid(t) {
			return nil, fmt.Errorf("baselines: unknown topic %d", t)
		}
		scores[i] = m.Influence(t, user)
	}
	return rank(related, scores, k), nil
}

// MemoryBytes reports the working-set size of one propagation: the two
// dense vectors (the per-query cost the Figure 13 experiment charges to
// BaseMatrix, which the paper could not afford at 3M nodes × topics).
func (m *Matrix) MemoryBytes() int64 {
	return int64(len(m.cur)+len(m.next)) * 8
}
