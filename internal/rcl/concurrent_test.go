package rcl

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/summary"
	"repro/internal/topics"
)

// TestSummarizerConcurrent: one Summarizer shared by eight goroutines,
// each running Summarize and Cluster over every golden-fixture topic in
// its own shuffled order, builds every topic's summary and clusters bit
// for bit as a serial pass through a fresh Summarizer does. Under -race
// (make race) it also proves the calls share no arena.
func TestSummarizerConcurrent(t *testing.T) {
	const goroutines, passes = 8, 3
	g, space, walks := goldenWorld(t)
	ctx := context.Background()
	for name, opts := range map[string]Options{
		"defaults":          {Seed: 13},
		"clustered_refined": {CSize: 4, SampleRate: 0.4, RefineCentroid: true, RepCount: 8, Seed: 29},
	} {
		t.Run(name, func(t *testing.T) {
			serial, err := New(g, space, walks, opts)
			if err != nil {
				t.Fatal(err)
			}
			n := space.NumTopics()
			wantSums := summarizeAll(t, serial, space)
			wantGroups := make([][][]graph.NodeID, n)
			for i := range wantGroups {
				if wantGroups[i], err = serial.Cluster(ctx, topics.TopicID(i)); err != nil {
					t.Fatal(err)
				}
			}
			shared, err := New(g, space, walks, opts)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for w := range goroutines {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					for range passes {
						for _, i := range rng.Perm(n) {
							tid := topics.TopicID(i)
							sum, err := shared.Summarize(ctx, tid)
							if err != nil {
								t.Error(err)
								return
							}
							if summary.Digest([]summary.Summary{sum}) != summary.Digest(wantSums[i:i+1]) {
								t.Errorf("goroutine %d: topic %d summarized concurrently differs from the serial pass", w, i)
							}
							groups, err := shared.Cluster(ctx, tid)
							if err != nil {
								t.Error(err)
								return
							}
							if !slices.EqualFunc(groups, wantGroups[i], slices.Equal) {
								t.Errorf("goroutine %d: topic %d clustered concurrently differs from the serial pass", w, i)
							}
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}
