package lrw

// The LRW-A summarizer (Algorithm 9, offline stage): select topic-aware
// representative nodes with the diversified PageRank of Algorithm 7, then
// weight them by absorbing-walk influence migration (Algorithm 8).

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/randwalk"
	"repro/internal/summary"
	"repro/internal/topics"
)

// Summarizer implements summary.Summarizer with the LRW-A method. It is
// stateless apart from its inputs and safe for concurrent use.
type Summarizer struct {
	g     *graph.Graph
	space *topics.Space
	walks *randwalk.Index
	opts  Options
}

var _ summary.Summarizer = (*Summarizer)(nil)

// New returns an LRW-A summarizer over the graph, topic space and
// pre-built walk index.
func New(g *graph.Graph, space *topics.Space, walks *randwalk.Index, opts Options) (*Summarizer, error) {
	if err := validateInputs(g, space, walks); err != nil {
		return nil, err
	}
	opts.fill()
	return &Summarizer{g: g, space: space, walks: walks, opts: opts}, nil
}

// Summarize runs Algorithm 9's offline stage for one topic. It checks ctx
// between PageRank iterations and migration rows; a done context aborts
// with ctx.Err().
func (s *Summarizer) Summarize(ctx context.Context, t topics.TopicID) (summary.Summary, error) {
	if !s.space.Valid(t) {
		return summary.Summary{}, fmt.Errorf("lrw: unknown topic %d", t)
	}
	vt := s.space.Nodes(t)
	if len(vt) == 0 {
		return summary.New(t, nil), nil
	}
	// One pooled scratch serves both kernels: the reps slice returned by
	// repNodesInto aliases it, and migrateInto only reads reps while
	// filling buffers the ranking no longer needs.
	sc := getScratch()
	defer putScratch(sc)
	reps, err := repNodesInto(ctx, s.g, s.walks, vt, s.opts, sc)
	if err != nil {
		return summary.Summary{}, err
	}
	return migrateInto(ctx, t, s.walks, vt, reps, sc)
}
