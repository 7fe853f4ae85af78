package rcl

// The RCL-A summarizer (Algorithm 5, offline stage): cluster the topic
// nodes (Algorithm 1), select each cluster's centroid (Algorithm 4), and
// weight every centroid by its cluster's share |g|/|V_t| of the topic's
// local influence. The resulting summary.Summary feeds the online top-k
// PIT-Search (Algorithm 10).

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/graph"
	"repro/internal/randwalk"
	"repro/internal/summary"
	"repro/internal/topics"
)

// Summarizer implements summary.Summarizer with the RCL-A method. It is
// safe for concurrent use: everything a summarization mutates — the
// scratch arena, BFS state included — is one arena from the
// summarizer's pool, held for the call, and each topic's RNG is seeded
// by the topic alone, so a summary is the same bits whichever goroutine
// builds it and whatever runs beside it.
type Summarizer struct {
	g     *graph.Graph
	space *topics.Space
	walks *randwalk.Index
	opts  Options
	// degs[v] = Degree(v) and totalDeg their float64 sum: V′'s
	// degree-proportional sampling weights, properties of the immutable
	// graph computed once in New. A degree counts distinct neighbors, at
	// most 2·|V|, so uint32 holds it and float64(degs[v]) is exact.
	degs     []uint32
	totalDeg float64
	// arenas holds the scratch arenas (scratch.go) of the calls not in
	// flight; the GC may drop them between calls.
	arenas sync.Pool
}

var _ summary.Summarizer = (*Summarizer)(nil)

// New returns an RCL-A summarizer over the graph, topic space and
// pre-built walk index.
func New(g *graph.Graph, space *topics.Space, walks *randwalk.Index, opts Options) (*Summarizer, error) {
	if g == nil || space == nil || walks == nil {
		return nil, fmt.Errorf("rcl: nil graph, space or walk index")
	}
	if walks.NumNodes() != g.NumNodes() {
		return nil, fmt.Errorf("rcl: walk index built over %d nodes, graph has %d", walks.NumNodes(), g.NumNodes())
	}
	s := &Summarizer{g: g, space: space, walks: walks, opts: opts, degs: make([]uint32, g.NumNodes())}
	for v := range s.degs {
		s.degs[v] = uint32(g.Degree(graph.NodeID(v)))
		s.totalDeg += float64(s.degs[v])
	}
	s.arenas.New = func() any { return new(scratch) }
	return s, nil
}

// arena takes a scratch arena sized for the graph from the pool; the
// caller hands it back with release once the call is done with it.
func (s *Summarizer) arena() *scratch {
	sc := s.arenas.Get().(*scratch)
	sc.ensureNodes(s.g.NumNodes())
	return sc
}

// release returns an arena to the pool.
func (s *Summarizer) release(sc *scratch) {
	s.arenas.Put(sc) //pitlint:ignore poolsafe rng is the arena's own generator, reseeded per topic; it references nothing outside the arena
}

// Summarize runs the offline stage of Algorithm 5 for one topic: it
// returns the weighted representative (central) node set. Central nodes
// shared by several clusters accumulate their clusters' weights. ctx is
// checked between the clustering stages and centroid selections; a done
// context aborts with ctx.Err().
func (s *Summarizer) Summarize(ctx context.Context, t topics.TopicID) (summary.Summary, error) {
	sc := s.arena()
	defer s.release(sc)
	groups, err := s.cluster(ctx, t, sc)
	if err != nil {
		return summary.Summary{}, err
	}
	vt := s.space.Nodes(t)
	if len(vt) == 0 {
		return summary.New(t, nil), nil
	}
	reps := make([]summary.WeightedNode, 0, len(groups))
	for _, grp := range groups {
		if err := ctx.Err(); err != nil {
			return summary.Summary{}, err
		}
		central := s.selectCentral(grp, sc)
		if central < 0 {
			continue
		}
		reps = append(reps, summary.WeightedNode{
			Node:   central,
			Weight: float64(len(grp)) / float64(len(vt)),
		})
	}
	sum := summary.New(t, reps)
	if s.opts.RepCount > 0 && sum.Len() > s.opts.RepCount {
		// Keep the heaviest centroids; ties by node ID for determinism.
		// Explicit >/< branches keep the comparator NaN-safe: a NaN
		// weight falls through to the ID tiebreak instead of poisoning
		// the order relation.
		trimmed := append([]summary.WeightedNode(nil), sum.Reps...)
		slices.SortFunc(trimmed, func(a, b summary.WeightedNode) int {
			switch {
			case a.Weight > b.Weight:
				return -1
			case a.Weight < b.Weight:
				return 1
			}
			return cmp.Compare(a.Node, b.Node)
		})
		sum = summary.New(t, trimmed[:s.opts.RepCount])
	}
	return sum, nil
}
