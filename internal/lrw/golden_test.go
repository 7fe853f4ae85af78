package lrw

// Golden tests pinning LRW-A's output byte-for-byte on fixed seeds. The
// PR-5 kernel work (pooled scratch, ping-pong score vectors) must be
// pure performance: identical inputs produce identical summaries down to
// the last float bit. A legitimate semantic change updates these digests
// in its own commit.

import (
	"context"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/randwalk"
	"repro/internal/summary"
	"repro/internal/topics"
)

// goldenWorld is the fixed dataset every golden digest is computed over
// (same shape as internal/rcl's golden world, built independently so the
// packages stay decoupled).
func goldenWorld(t testing.TB) (*graph.Graph, *topics.Space, *randwalk.Index) {
	t.Helper()
	g, err := dataset.GenerateGraph(dataset.GraphConfig{
		Nodes: 300, MinOutDegree: 2, MaxOutDegree: 6, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	space, err := dataset.GenerateTopics(g, dataset.TopicConfig{
		Tags: 3, TopicsPerTag: 3, MeanTopicNodes: 20, Locality: 0.7, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	walks, err := randwalk.Build(context.Background(), g, randwalk.Options{L: 4, R: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	return g, space, walks
}

func summarizeAll(t testing.TB, s *Summarizer, space *topics.Space) []summary.Summary {
	t.Helper()
	out := make([]summary.Summary, space.NumTopics())
	for i := range out {
		sum, err := s.Summarize(context.Background(), topics.TopicID(i))
		if err != nil {
			t.Fatalf("topic %d: %v", i, err)
		}
		if err := sum.Validate(); err != nil {
			t.Fatalf("topic %d: %v", i, err)
		}
		out[i] = sum
	}
	return out
}

// goldenDefaultsDigest pins every summary of goldenWorld under Options{}.
const goldenDefaultsDigest = "4412afa7935ed9c55ce72bac71f5d57b0cf92f92d7ba21cc3ebdb7921ded9f1e"

func TestGoldenSummaries(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		want string
	}{
		{
			name: "defaults",
			opts: Options{},
			want: goldenDefaultsDigest,
		},
		{
			name: "repcount_capped",
			opts: Options{Lambda: 0.7, RepCount: 12},
			want: "358874f9e92b377ffb9c86ee8afc4ccfb6bb0dbafbee358eec9b36c794b401b6",
		},
	}
	g, space, walks := goldenWorld(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(g, space, walks, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			// Two passes through one summarizer: pooled scratch reuse must
			// not leak state between topics or calls.
			first := summary.Digest(summarizeAll(t, s, space))
			second := summary.Digest(summarizeAll(t, s, space))
			if first != second {
				t.Fatalf("repeat summarization diverged: %s then %s", first, second)
			}
			if first != tc.want {
				t.Fatalf("golden digest mismatch:\n got  %s\n want %s", first, tc.want)
			}
		})
	}
}
