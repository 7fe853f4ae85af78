package search

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/summary"
	"repro/internal/topics"
)

// randomWorld builds a random weighted graph and summary set.
func randomWorld(t *testing.T, seed int64, nodes, numTopics int) (*Searcher, []summary.Summary) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(nodes)
	for u := 0; u < nodes; u++ {
		deg := 1 + rng.Intn(4)
		for d := 0; d < deg; d++ {
			v := rng.Intn(nodes)
			if v == u {
				continue
			}
			b.AddEdge(graph.NodeID(u), graph.NodeID(v), 0.05+0.4*rng.Float64())
		}
	}
	ix := buildIndex(t, b.Build(), 0.01)
	sums := make([]summary.Summary, numTopics)
	for i := range sums {
		reps := make([]summary.WeightedNode, 1+rng.Intn(5))
		for j := range reps {
			reps[j] = summary.WeightedNode{Node: graph.NodeID(rng.Intn(nodes)), Weight: 0.1 + rng.Float64()}
		}
		sums[i] = summary.New(topics.TopicID(i), reps)
	}
	return newSearcher(t, ix, Options{MaxExpandDepth: 3, MaxFrontier: 32}), sums
}

func TestCountUndecided(t *testing.T) {
	states := []topicState{
		{id: 0, score: 0.9},
		{id: 1, score: 0.5, pruned: true},
		{id: 2, score: 0.5}, // ties with 1; topic ID breaks the tie
		{id: 3, score: 0.1},
	}
	var ranked []*topicState
	for i := range states {
		ranked = append(ranked, &states[i])
	}
	slices.SortFunc(ranked, byRank)
	// k=1: positions 1..3 hold topics 1, 2, 3 (rank order); unpruned 2, 3.
	if got := countUndecided(ranked, 1, false); got != 2 {
		t.Fatalf("undecided = %d, want 2", got)
	}
	if got := countUndecided(ranked, 4, false); got != 0 {
		t.Fatalf("k=len: undecided = %d, want 0", got)
	}
}

func TestSessionValidation(t *testing.T) {
	s, sums := randomWorld(t, 2, 10, 2)
	if _, err := s.NewSession(context.Background(), -1, sums); err == nil {
		t.Error("negative user accepted")
	}
	// Zero summaries open a valid session with nothing to rank.
	ss, err := s.NewSession(context.Background(), 0, nil)
	if err != nil {
		t.Fatalf("empty summary set rejected: %v", err)
	}
	defer ss.Close()
	if res, _, err := Drive(context.Background(), ss, 3, nil); err != nil || len(res) != 0 {
		t.Errorf("empty session: res=%v err=%v, want no results", res, err)
	}
}
