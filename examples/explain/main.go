// Explain demonstrates the search diagnostics API: the same top-k
// PIT-Search as the other examples, but with the full trace of what the
// dynamic algorithm did — how many representatives each topic placed in
// the user's propagation index, which topics the W_r·maxEP upper bound
// pruned and at which expansion level, and how the expansion frontier
// evolved. This is the view an operator uses to tune θ, the expansion
// budget and the representative count.
//
// Run with:
//
//	go run ./examples/explain
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
)

func main() {
	g, err := dataset.GenerateGraph(dataset.GraphConfig{
		Nodes: 3000, MinOutDegree: 3, MaxOutDegree: 14, Seed: 77,
	})
	if err != nil {
		log.Fatal(err)
	}
	space, err := dataset.GenerateTopics(g, dataset.TopicConfig{
		Tags: 4, TopicsPerTag: 12, MeanTopicNodes: 60, Locality: 0.8, Seed: 77,
	})
	if err != nil {
		log.Fatal(err)
	}
	eng, err := core.New(g, space, core.Options{Seed: 77})
	if err != nil {
		log.Fatal(err)
	}
	if err := eng.BuildIndexes(context.Background()); err != nil {
		log.Fatal(err)
	}

	const query = "tag001"
	var user graph.NodeID
	for v := 0; v < g.NumNodes(); v++ {
		if g.InDegree(graph.NodeID(v)) >= 6 {
			user = graph.NodeID(v)
			break
		}
	}
	related := space.Related(query)
	ans, err := eng.Run(context.Background(), core.Query{Text: query, User: user, K: 3, Fidelity: core.FidelityFull, Trace: true})
	if err != nil {
		log.Fatal(err)
	}
	tr := ans.Trace

	fmt.Printf("query %q for user %d: %d candidate topics, |Γ(user)| = %d\n\n",
		query, user, len(related), tr.GammaSize)
	fmt.Println("top-3 topics:")
	for i, r := range tr.Results {
		fmt.Printf("  %d. %-25s influence %.6f\n", i+1, space.Topic(r.Topic).Label, r.Score)
	}

	fmt.Printf("\nexpansion ran %d level(s); frontier sizes per level: %v\n", tr.Depth, tr.FrontierSizes)

	pruned := 0
	consumed, total := 0, 0
	for _, tt := range tr.Topics {
		if tt.Pruned {
			pruned++
		}
		consumed += tt.ConsumedReps
		total += tt.TotalReps
	}
	fmt.Printf("pruned %d of %d topics without full evaluation\n", pruned, len(tr.Topics))
	fmt.Printf("representatives consumed: %d of %d (%.0f%%) — the rest never had to be probed\n",
		consumed, total, 100*float64(consumed)/float64(total))

	// The most instructive rows: the winner and the earliest-pruned topic.
	sort.Slice(tr.Topics, func(a, b int) bool { return tr.Topics[a].Score > tr.Topics[b].Score })
	best := tr.Topics[0]
	fmt.Printf("\nwinner %q: %d/%d reps found, remaining weight %.3f\n",
		space.Topic(best.Topic).Label, best.ConsumedReps, best.TotalReps, best.RemainingWeight)
	for i := len(tr.Topics) - 1; i >= 0; i-- {
		if tt := tr.Topics[i]; tt.Pruned {
			fmt.Printf("pruned example %q: score %.6f, eliminated at expansion level %d\n",
				space.Topic(tt.Topic).Label, tt.Score, tt.PrunedAtDepth)
			break
		}
	}
}
