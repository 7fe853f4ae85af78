package lrw

// Kernel micro-benchmark over the golden fixture — the per-topic LRW-A
// cost (diversified PageRank + influence migration) with no cache layers
// in front. `make bench-smoke` runs this once; benchmark/'s traced run
// measures the same shape (lrw.summarize_us) on the full benchmark
// dataset.

import (
	"context"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/randwalk"
	"repro/internal/topics"
)

func BenchmarkSummarizeCorpus(b *testing.B) {
	b.Run("golden", func(b *testing.B) {
		g, space, walks := goldenWorld(b)
		benchSummarize(b, g, space, walks)
	})
	// The benchmark harness's dataset at the server's L and R.
	b.Run("data_350k", func(b *testing.B) {
		if testing.Short() {
			b.Skip("data_350k build skipped under -short")
		}
		p, err := dataset.PresetByName("data_350k")
		if err != nil {
			b.Fatal(err)
		}
		ds, err := p.Build()
		if err != nil {
			b.Fatal(err)
		}
		walks, err := randwalk.Build(context.Background(), ds.Graph, randwalk.Options{L: 6, R: 16, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		benchSummarize(b, ds.Graph, ds.Space, walks)
	})
}

func benchSummarize(b *testing.B, g *graph.Graph, space *topics.Space, walks *randwalk.Index) {
	s, err := New(g, space, walks, Options{})
	if err != nil {
		b.Fatal(err)
	}
	total := space.NumTopics()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Summarize(context.Background(), topics.TopicID(i%total)); err != nil {
			b.Fatal(err)
		}
	}
}
