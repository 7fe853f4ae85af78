// Quickstart: the smallest end-to-end PIT-Search program.
//
// It generates a synthetic social network and topic space, builds the
// offline indexes (Algorithm 6 walk index + Section 5.1 propagation
// index), and answers one keyword query for one user with both
// summarization methods.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dataset"
)

func main() {
	// 1. A small synthetic social network: 1,000 users, Twitter-like
	//    degree distribution, and 8 tags × 5 topics placed in communities.
	g, err := dataset.GenerateGraph(dataset.GraphConfig{
		Nodes: 1000, MinOutDegree: 2, MaxOutDegree: 12, Seed: 42,
	})
	if err != nil {
		log.Fatal(err)
	}
	space, err := dataset.GenerateTopics(g, dataset.TopicConfig{
		Tags: 8, TopicsPerTag: 5, MeanTopicNodes: 25, Locality: 0.7, Seed: 42,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network: %d users, %d follow links, %d topics\n",
		g.NumNodes(), g.NumEdges(), space.NumTopics())

	// 2. Build the engine and its offline indexes.
	eng, err := core.New(g, space, core.Options{Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	if err := eng.BuildIndexes(context.Background()); err != nil {
		log.Fatal(err)
	}

	// 3. One user asks one keyword query; both summarizations answer.
	const user = 17
	const query = "tag003"
	for _, m := range []core.Method{core.MethodLRW, core.MethodRCL} {
		ans, err := eng.Run(context.Background(), core.Query{Method: m, Text: query, User: user, K: 3})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\ntop-3 %q topics for user %d via %s:\n", query, user, m)
		for i, r := range ans.Results {
			fmt.Printf("  %d. %-30s influence %.6f\n", i+1, r.Topic.Label, r.Score)
		}
	}
}
