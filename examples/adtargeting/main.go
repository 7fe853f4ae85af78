// Adtargeting demonstrates the "target advertising" use case from the
// paper's introduction: an advertiser picks, for each candidate customer,
// the product topic that is already most influential in that customer's
// social context — rather than broadcasting the same campaign to everyone.
//
// The program builds a mid-size synthetic network, materializes LRW-A
// summaries for every topic under a product tag (the paper's offline
// topic-to-representative index), and then segments a sample of users by
// their personally most influential product topic.
//
// Run with:
//
//	go run ./examples/adtargeting
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/topics"
)

func main() {
	g, err := dataset.GenerateGraph(dataset.GraphConfig{
		Nodes: 4000, MinOutDegree: 2, MaxOutDegree: 16,
		PreferentialBias: 0.75, Seed: 99,
	})
	if err != nil {
		log.Fatal(err)
	}
	// One "product" tag with six concrete campaign topics, each discussed
	// by a community of users, plus background chatter tags.
	space, err := dataset.GenerateTopics(g, dataset.TopicConfig{
		Tags: 6, TopicsPerTag: 6, MeanTopicNodes: 60, Locality: 0.8, Seed: 99,
	})
	if err != nil {
		log.Fatal(err)
	}

	eng, err := core.New(g, space, core.Options{Seed: 99})
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	if err := eng.BuildIndexes(context.Background()); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network: %d users, %d links; offline indexes built in %v\n",
		g.NumNodes(), g.NumEdges(), time.Since(start).Round(time.Millisecond))

	// Offline: materialize the campaign tag's summaries once.
	campaignTag := dataset.TagName(0)
	related := space.Related(campaignTag)
	start = time.Now()
	for _, t := range related {
		if _, err := eng.Summarize(context.Background(), core.MethodLRW, t); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("materialized %d campaign topics in %v\n\n",
		len(related), time.Since(start).Round(time.Millisecond))

	// Online: segment 400 candidate customers by their top campaign topic.
	segments := map[topics.TopicID][]graph.NodeID{}
	reached := 0
	start = time.Now()
	for user := graph.NodeID(0); user < 400; user++ {
		ans, err := eng.Run(context.Background(), core.Query{Topics: related, User: user, K: 1, Fidelity: core.FidelityFull})
		if err != nil {
			log.Fatal(err)
		}
		res := ans.Results
		if len(res) == 0 || res[0].Score == 0 {
			continue // socially unreachable: don't waste ad spend
		}
		segments[res[0].Topic.ID] = append(segments[res[0].Topic.ID], user)
		reached++
	}
	elapsed := time.Since(start)

	fmt.Printf("segmented %d reachable customers (of 400 candidates) in %v (%.2f ms/user):\n",
		reached, elapsed.Round(time.Millisecond), float64(elapsed.Microseconds())/1000/400)
	ordered := make([]topics.TopicID, 0, len(segments))
	for t := range segments {
		ordered = append(ordered, t)
	}
	sort.Slice(ordered, func(i, j int) bool { return len(segments[ordered[i]]) > len(segments[ordered[j]]) })
	for _, t := range ordered {
		fmt.Printf("  %-25s %4d customers\n", space.Topic(t).Label, len(segments[t]))
	}
}
