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
	var out [1]summary.Summary
	if err := s.summarizeInto(ctx, []topics.TopicID{t}, out[:]); err != nil {
		return summary.Summary{}, err
	}
	return out[0], nil
}

// Lanes is how many topics share one pass of Equation 5 in SummarizeMany.
// Four 8-byte lanes make one 32-byte gather per in-edge; at eight the
// gathered rows spill the cache and a topic costs more, not less (DESIGN.md
// §12 "Four topics per pass").
const Lanes = 4

// SummarizeMany is Summarize for every topic of ts, bit for bit, with
// Equation 5 run for Lanes topics per pass over the propagation plan
// (DESIGN.md §12 "Four topics per pass"). It returns one summary per topic,
// in order, or an error and none.
func (s *Summarizer) SummarizeMany(ctx context.Context, ts []topics.TopicID) ([]summary.Summary, error) {
	out := make([]summary.Summary, len(ts))
	if err := s.summarizeInto(ctx, ts, out); err != nil {
		return nil, err
	}
	return out, nil
}

func (s *Summarizer) summarizeInto(ctx context.Context, ts []topics.TopicID, out []summary.Summary) error {
	sc := getScratch()
	defer putScratch(sc)
	return summarizeBlock(ctx, s.g, s.space, s.walks, ts, s.opts, sc, out)
}

// summarizeBlock summarizes ts on one scratch, out[i] becoming ts[i]'s
// summary. A topic without nodes needs no kernel; the others share
// Equation 5 passes Lanes at a time, a lone one left over in a pass of its
// own. The scratch serves every stage: selection returns reps aliasing it,
// and migrateInto only reads reps while filling buffers the ranking no
// longer needs. On an error out holds nothing usable.
func summarizeBlock(ctx context.Context, g *graph.Graph, space *topics.Space, walks *randwalk.Index, ts []topics.TopicID, opt Options, sc *scratch, out []summary.Summary) error {
	opt.fill()
	// The topics sharing the next pass: lane j is ts[at[j]], with nodes vts[j].
	var (
		at  [Lanes]int
		vts [Lanes][]graph.NodeID
	)
	k := 0
	for i, t := range ts {
		if !space.Valid(t) {
			return fmt.Errorf("lrw: unknown topic %d", t)
		}
		if vts[k] = space.Nodes(t); len(vts[k]) == 0 {
			out[i] = summary.New(t, nil)
			continue
		}
		at[k] = i
		if k++; k == Lanes {
			if err := summarizeLanes(ctx, g, walks, ts, at[:k], vts[:k], opt, sc, out); err != nil {
				return err
			}
			k = 0
		}
	}
	if k == 0 {
		return nil
	}
	return summarizeLanes(ctx, g, walks, ts, at[:k], vts[:k], opt, sc, out)
}

// summarizeLanes summarizes the topics ts[at[0]], ts[at[1]], … with nodes
// vts[0], vts[1], … into the matching out slots from one Equation 5 pass.
// Each lane's scores are copied out into sc.scores, the n-vector selectReps
// and migrateInto read, so neither knows it ran in a block.
func summarizeLanes(ctx context.Context, g *graph.Graph, walks *randwalk.Index, ts []topics.TopicID, at []int, vts [][]graph.NodeID, opt Options, sc *scratch, out []summary.Summary) error {
	lanes, err := scoresLanes(ctx, g, walks, vts, opt, sc)
	if err != nil {
		return err
	}
	for j, i := range at {
		scores := sc.scores
		for v := range scores {
			scores[v] = lanes[v][j]
		}
		reps, err := selectReps(ctx, scores, len(vts[j]), opt, sc)
		if err != nil {
			return err
		}
		if out[i], err = migrateInto(ctx, ts[i], walks, vts[j], reps, sc); err != nil {
			return err
		}
	}
	return nil
}
