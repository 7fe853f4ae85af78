// Newsfeed demonstrates the "personalized recommendation" use case from
// the paper's introduction: ranking the topics a user's feed should lead
// with. Two users who follow the same keyword get different feeds because
// their social contexts differ — and the program shows how the ranking
// reacts when the network changes (a re-summarization after new users
// adopt a topic, the paper's periodic offline refresh).
//
// Run with:
//
//	go run ./examples/newsfeed
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/topics"
)

func main() {
	g, err := dataset.GenerateGraph(dataset.GraphConfig{
		Nodes: 2500, MinOutDegree: 2, MaxOutDegree: 14,
		PreferentialBias: 0.7, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	space, err := dataset.GenerateTopics(g, dataset.TopicConfig{
		Tags: 5, TopicsPerTag: 8, MeanTopicNodes: 40, Locality: 0.8, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	eng, err := core.New(g, space, core.Options{Seed: 7, Theta: 0.005})
	if err != nil {
		log.Fatal(err)
	}
	if err := eng.BuildIndexes(context.Background()); err != nil {
		log.Fatal(err)
	}

	const query = "tag002"
	userA, userB := pickDistantUsers(g)
	fmt.Printf("feed query %q for two users in different communities:\n\n", query)
	for _, user := range []graph.NodeID{userA, userB} {
		ans, err := eng.Run(context.Background(), core.Query{Text: query, User: user, K: 3})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("user %d's feed leads with:\n", user)
		for i, r := range ans.Results {
			fmt.Printf("  %d. %-25s influence %.5f\n", i+1, r.Topic.Label, r.Score)
		}
		fmt.Println()
	}

	// The network evolves: a burst of users near userA adopts a topic
	// that was previously irrelevant to them. The paper refreshes the
	// offline summarization "after a period of time when the social
	// network and topics have changed" — dynamic.Refresh performs that
	// refresh incrementally, carrying over the summaries of topics the
	// change did not touch.
	if err := eng.MaterializeAll(context.Background(), core.MethodLRW); err != nil {
		log.Fatal(err)
	}
	burst := space.Related(query)[0]
	updated := adoptTopic(g, space, burst, userA, 50)
	eng2, st, err := dynamic.Refresh(context.Background(), eng, updated, dynamic.Batch{}, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("incremental refresh carried %d of %d summaries; only changed topics recompute\n\n",
		st.Carried[core.MethodLRW], space.NumTopics())
	ans, err := eng2.Run(context.Background(), core.Query{Text: query, User: userA, K: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after %d users near user %d adopt %q, user %d's feed leads with:\n",
		50, userA, updated.Topic(burst).Label, userA)
	for i, r := range ans.Results {
		fmt.Printf("  %d. %-25s influence %.5f\n", i+1, r.Topic.Label, r.Score)
	}
}

// pickDistantUsers returns two well-connected users that cannot reach each
// other within 3 hops, so their social contexts differ.
func pickDistantUsers(g *graph.Graph) (graph.NodeID, graph.NodeID) {
	tr := graph.NewTraverser(g)
	var first graph.NodeID = -1
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if g.InDegree(v) < 3 {
			continue
		}
		if first < 0 {
			first = v
			continue
		}
		if tr.HopDistance(first, v, 3) < 0 && tr.HopDistance(v, first, 3) < 0 {
			return first, v
		}
	}
	return first, first + 1
}

// adoptTopic returns a new topic space in which `count` users around
// center additionally discuss topic t.
func adoptTopic(g *graph.Graph, space *topics.Space, t topics.TopicID, center graph.NodeID, count int) *topics.Space {
	sb := topics.NewSpaceBuilder()
	idMap := make([]topics.TopicID, space.NumTopics())
	for ti := 0; ti < space.NumTopics(); ti++ {
		old := space.Topic(topics.TopicID(ti))
		id, err := sb.AddTopic(old.Tag, old.Label)
		if err != nil {
			log.Fatal(err)
		}
		idMap[ti] = id
		for _, v := range space.Nodes(topics.TopicID(ti)) {
			_ = sb.AddNode(id, v)
		}
	}
	tr := graph.NewTraverser(g)
	added := 0
	// Adopters come from the user's 2-hop in-neighborhood: the people
	// whose posts actually reach the user's feed above the propagation
	// threshold.
	tr.Reverse(center, 2, func(v graph.NodeID, _ int) bool {
		_ = sb.AddNode(idMap[t], v)
		added++
		return added < count
	})
	return sb.Build()
}
