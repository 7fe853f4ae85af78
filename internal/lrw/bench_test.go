package lrw

// Kernel micro-benchmark over the golden fixture — the per-topic LRW-A
// cost (diversified PageRank + influence migration) with no cache layers
// in front. `make bench-smoke` runs this once; benchmark/'s traced run
// measures the same shape (lrw.summarize_us) on the full benchmark
// dataset.

import (
	"context"
	"testing"

	"repro/internal/topics"
)

func BenchmarkSummarizeCorpus(b *testing.B) {
	g, space, walks := goldenWorld(b)
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
