package rcl

// Kernel micro-benchmark over the golden fixture — the per-topic RCL-A
// cost (clustering + centroid selection) with no cache layers in front.
// `make bench-smoke` runs this once; benchmark/'s traced run measures the
// same shape (rcl.summarize_us) on the full benchmark dataset.

import (
	"context"
	"testing"

	"repro/internal/topics"
)

func BenchmarkSummarizeCorpus(b *testing.B) {
	g, space, walks := goldenWorld(b)
	s, err := New(g, space, walks, Options{Seed: 13})
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
