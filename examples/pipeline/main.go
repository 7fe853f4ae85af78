// Pipeline demonstrates the complete production path from raw data to
// personalized influential topic search — the deployment story behind the
// paper's system:
//
//  1. structure: a crawled follow graph (synthetic here),
//  2. Λ: edge influence probabilities *learned from action traces*
//     (Goyal et al., the paper's ref [5]) instead of hand-assigned,
//  3. topics: extracted from users' posted messages by the §6.1 pipeline
//     (TF-IDF seeds refined against a tag vocabulary),
//  4. engine: offline indexes + LRW-A summarization,
//  5. search: personalized top-k answers per user.
//
// Run with:
//
//	go run ./examples/pipeline
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/actions"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/topicmodel"
)

func main() {
	// 1. The follow graph: topology only; generated weights are stand-ins
	//    for "unknown".
	structure, err := dataset.GenerateGraph(dataset.GraphConfig{
		Nodes: 1500, MinOutDegree: 3, MaxOutDegree: 12, Seed: 19,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 2. Influence weights from behaviour: users re-share items; Learn
	//    turns the trace into edge probabilities. (The trace here is
	//    simulated from the generated weights, so Learn is reconstructing
	//    influence that really exists — in production this is your
	//    retweet/share log.)
	trace := actions.SimulateTrace(structure, 400, 3, 8, 19)
	g, err := actions.Learn(structure, trace, actions.Options{Window: 8, DecayTau: 16})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("learned Λ from %d actions over %d items\n", len(trace), 400)

	// 3. Topics from posts: community-flavoured synthetic corpus, TF-IDF
	//    seed extraction, tag refinement.
	vocab := topicmodel.NewVocabulary(map[string][]string{
		"phone":  {"iphone", "galaxy", "pixel", "foldable"},
		"coffee": {"espresso", "latte", "roast", "pourover"},
		"cinema": {"premiere", "director", "trailer", "festival"},
	})
	posts, err := topicmodel.GenerateCorpus(g, topicmodel.CorpusConfig{
		PostsPerUser: 8, Vocab: vocab, CommunityTerms: 4, Seed: 19,
	})
	if err != nil {
		log.Fatal(err)
	}
	space, err := topicmodel.Extract(posts, vocab, topicmodel.Options{SeedsPerUser: 8, MinUsersPerTopic: 5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("extracted %d topics from %d posts\n", space.NumTopics(), len(posts))

	// 4. The engine over the learned graph and extracted topics.
	eng, err := core.New(g, space, core.Options{Seed: 19})
	if err != nil {
		log.Fatal(err)
	}
	if err := eng.BuildIndexes(context.Background()); err != nil {
		log.Fatal(err)
	}

	// 5. The same query, personalized per user — batched.
	const query = "phone"
	users := []graph.NodeID{}
	for v := 0; v < g.NumNodes() && len(users) < 5; v++ {
		if g.InDegree(graph.NodeID(v)) >= 5 {
			users = append(users, graph.NodeID(v))
		}
	}
	answers, err := core.RunMany(context.Background(), eng, core.Query{Text: query, K: 2, Fidelity: core.FidelityFull}, users, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntop phone topics per user (query %q):\n", query)
	for i, u := range users {
		fmt.Printf("  user %-4d →", u)
		if len(answers[i].Results) == 0 {
			fmt.Print(" (no influential topic)")
		}
		for _, r := range answers[i].Results {
			fmt.Printf("  %s (%.5f)", r.Topic.Label, r.Score)
		}
		fmt.Println()
	}
}
