// Phonebrands reproduces Example 1 / Figure 1 of the paper: fifteen social
// users discuss three phone topics — Apple (t1), Samsung (t2) and HTC (t3)
// — and the same query q = {phone} returns a different top-1 topic for
// User 3, User 7 and User 14, because PIT-Search ranks topics by their
// influence in each user's own social context.
//
// Edge weights (see internal/dataset.Figure1Scenario) are chosen so the
// exact all-paths influence of t1 on User 3 reproduces the paper's worked
// value ≈ 0.137 and so the paper's three top-1 outcomes hold (t2 for User
// 3, t3 for User 7, t2 for User 14).
//
// Run with:
//
//	go run ./examples/phonebrands
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/lrw"
	"repro/internal/topics"
)

func main() {
	g, space, err := dataset.Figure1Scenario()
	if err != nil {
		log.Fatal(err)
	}

	// Exact influence via BaseMatrix (all walks of length ≤ 6), the
	// computation Example 1 traces by hand.
	m, err := baselines.NewMatrix(g, space, 6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("exact topic influence on User 3 (Example 1):")
	for ti := 0; ti < space.NumTopics(); ti++ {
		t := space.Topic(topics.TopicID(ti))
		fmt.Printf("  %-15s %.4f\n", t.Label, m.Influence(t.ID, 3))
	}
	fmt.Println("  (paper's worked values: apple ≈ 0.137, samsung ≈ 0.188, htc ≈ 0.065)")

	// The same query from three different users, answered exactly.
	fmt.Println("\ntop-1 result for q = {phone} per user (BaseMatrix, exact):")
	for _, user := range []graph.NodeID{3, 7, 14} {
		res, err := m.TopK(user, space.Related("phone"), 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  user %-2d → %s (influence %.4f)\n", user, space.Topic(res[0].Topic).Label, res[0].Score)
	}

	// And through the full summarization + index pipeline. On a 15-user
	// network a meaningful summary needs nearly as many representatives
	// as topic users (the paper's ratio is 1000 reps per 20k topic
	// users; compression only pays off at scale).
	eng, err := core.New(g, space, core.Options{
		WalkL: 6, WalkR: 64, Theta: 0.001, Seed: 3,
		LRW: lrw.Options{RepCount: 6, Lambda: 0.5},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := eng.BuildIndexes(context.Background()); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ntop-1 result per user (LRW-A summarization + top-k index):")
	for _, user := range []graph.NodeID{3, 7, 14} {
		ans, err := eng.Run(context.Background(), core.Query{Text: "phone", User: user, K: 1})
		if err != nil {
			log.Fatal(err)
		}
		res := ans.Results
		if len(res) == 0 {
			fmt.Printf("  user %-2d → (no influential topic found)\n", user)
			continue
		}
		fmt.Printf("  user %-2d → %s (influence %.4f)\n", user, res[0].Topic.Label, res[0].Score)
	}
	fmt.Println("\nnote: LRW-A is an approximation — the paper reports ≈0.85")
	fmt.Println("precision against the exact ranking, and on a 15-user toy")
	fmt.Println("network a single absorbed hub can flip one of the answers.")
}
