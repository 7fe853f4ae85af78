package search_test

// The search carries no instrumentation of its own: Drive reports what
// a run did in search.Stats, and the query path above it (core.Ladder,
// behind both an engine and the shard router) turns that into metrics.

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/shard"
)

// TestMetricsRecorded: Stats.Truncated counts the expansion levels a
// run cut to MaxFrontier, and pit_search_frontier_truncations_total
// moves by exactly that once per Run — on an engine's ladder and on a
// shard router's alike.
func TestMetricsRecorded(t *testing.T) {
	ctx := context.Background()
	g, err := dataset.GenerateGraph(dataset.GraphConfig{Nodes: 200, MinOutDegree: 2, MaxOutDegree: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	space, err := dataset.GenerateTopics(g, dataset.TopicConfig{Tags: 2, TopicsPerTag: 6, MeanTopicNodes: 10, Locality: 0.8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// MaxFrontier 1 truncates every level whose frontier has more than
	// one node; DisablePruning keeps expansion running to MaxExpandDepth.
	sopts := search.Options{MaxFrontier: 1, DisablePruning: true}
	opts := core.Options{WalkL: 3, WalkR: 4, Seed: 7, Search: sopts}
	related := space.Related("tag000")
	const user = graph.NodeID(3)
	q := core.Query{Method: core.MethodLRW, Topics: related, User: user, K: 2, Fidelity: core.FidelityFull}

	engReg := obs.NewRegistry()
	engOpts := opts
	engOpts.Metrics = engReg
	eng, err := core.New(g, space, engOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.BuildIndexes(ctx); err != nil {
		t.Fatal(err)
	}
	sums, err := eng.MaterializeTopics(ctx, core.MethodLRW, related, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := search.New(eng.Prop(), sopts)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := s.NewSession(ctx, user, sums)
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := search.Drive(ctx, ss, q.K, nil)
	ss.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Truncated == 0 || st.Truncated > st.Depth {
		t.Fatalf("Stats.Truncated = %d over %d levels with MaxFrontier=1, want 1..%d", st.Truncated, st.Depth, st.Depth)
	}

	routerReg := obs.NewRegistry()
	engines, err := shard.BuildEngines(ctx, g, space, opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	part, err := shard.NewPartitioner(space, len(engines))
	if err != nil {
		t.Fatal(err)
	}
	router, err := shard.New(part, core.Static(engines...), shard.Config{Metrics: routerReg})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	const runs = 5
	for _, tc := range []struct {
		name   string
		runner core.Runner
		reg    *obs.Registry
	}{{"engine", eng, engReg}, {"router", router, routerReg}} {
		for i := 0; i < runs; i++ {
			if _, err := tc.runner.Run(ctx, q); err != nil {
				t.Fatal(err)
			}
		}
		got := tc.reg.Counter("pit_search_frontier_truncations_total", "").Value()
		if want := uint64(runs * st.Truncated); got != want {
			t.Errorf("%s: pit_search_frontier_truncations_total = %d after %d runs truncating %d levels each, want %d",
				tc.name, got, runs, st.Truncated, want)
		}
	}
}
