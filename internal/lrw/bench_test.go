package lrw

// Kernel micro-benchmark over the golden fixture — the per-topic LRW-A
// cost (diversified PageRank + influence migration) with no cache layers
// in front. `make bench-smoke` runs this once; benchmark/'s traced run
// measures the same shape (lrw.summarize_us) on the full benchmark
// dataset.

import (
	"context"
	"slices"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/randwalk"
	"repro/internal/topics"
)

// benchWorlds runs fn on the golden fixture and on the benchmark harness's
// dataset at the server's L and R.
func benchWorlds(b *testing.B, fn func(*testing.B, *graph.Graph, *topics.Space, *randwalk.Index)) {
	b.Run("golden", func(b *testing.B) {
		g, space, walks := goldenWorld(b)
		fn(b, g, space, walks)
	})
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
		fn(b, ds.Graph, ds.Space, walks)
	})
}

// BenchmarkSummarizeCorpus is one topic end to end on a warm scratch, its
// Equation 5 a one-lane pass; plan_build_us is what the first topic of a
// (graph, walks) pair pays on top.
func BenchmarkSummarizeCorpus(b *testing.B) {
	benchWorlds(b, func(b *testing.B, g *graph.Graph, space *topics.Space, walks *randwalk.Index) {
		s, err := New(g, space, walks, Options{})
		if err != nil {
			b.Fatal(err)
		}
		var p plan
		start := time.Now()
		if err := p.ensure(context.Background(), g, walks); err != nil {
			b.Fatal(err)
		}
		planBuild := time.Since(start)
		total := space.NumTopics()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Summarize(context.Background(), topics.TopicID(i%total)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(planBuild.Microseconds()), "plan_build_us")
	})
}

// BenchmarkSummarizeMany is a whole tag per iteration through
// SummarizeMany on a warm scratch — the kernel side of the refill the first
// query of a tag pays after a swap (120 topics on data_350k) — reported as
// ms/tag beside BenchmarkSummarizeCorpus's one topic at a time.
func BenchmarkSummarizeMany(b *testing.B) {
	benchWorlds(b, func(b *testing.B, g *graph.Graph, space *topics.Space, walks *randwalk.Index) {
		s, err := New(g, space, walks, Options{})
		if err != nil {
			b.Fatal(err)
		}
		var tags [][]topics.TopicID
		seen := map[string]bool{}
		for t := 0; t < space.NumTopics(); t++ {
			if tag := space.Topic(topics.TopicID(t)).Tag; !seen[tag] {
				seen[tag] = true
				tags = append(tags, space.Related(tag))
			}
		}
		if _, err := s.SummarizeMany(context.Background(), tags[0][:1]); err != nil { // the plan, outside the timer
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.SummarizeMany(context.Background(), tags[i%len(tags)]); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/tag")
	})
}

// BenchmarkScores is Equation 5 alone for one topic (a one-lane pass of L
// iterations over the plan, no ranking, no migration), so a change in
// BenchmarkSummarizeCorpus can be told apart as kernel or not without a
// profiler.
func BenchmarkScores(b *testing.B) {
	benchWorlds(b, func(b *testing.B, g *graph.Graph, space *topics.Space, walks *randwalk.Index) {
		sc := new(scratch)
		total := space.NumTopics()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			vts := [][]graph.NodeID{space.Nodes(topics.TopicID(i % total))}
			if _, err := scoresLanes(context.Background(), g, walks, vts, Options{}, sc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPropagate4 is one four-lane Equation 5 iteration through each
// kernel — propagate4Go and, where the CPU has AVX, propagate4AVX — over
// the first Lanes topics' priors, reported per in-edge: the unit both
// kernels' inner loops step by.
func BenchmarkPropagate4(b *testing.B) {
	benchWorlds(b, func(b *testing.B, g *graph.Graph, space *topics.Space, walks *randwalk.Index) {
		var p plan
		if err := p.ensure(context.Background(), g, walks); err != nil {
			b.Fatal(err)
		}
		n := g.NumNodes()
		pStar := make([][Lanes]float64, n)
		for j := 0; j < Lanes && j < space.NumTopics(); j++ {
			vt := space.Nodes(topics.TopicID(j))
			for _, v := range vt {
				pStar[v][j] = 1 / float64(len(vt))
			}
		}
		for _, k := range []kernel4{{"go", (*plan).propagate4Go}, {"avx", (*plan).propagate4AVX}} {
			b.Run(k.name, func(b *testing.B) {
				if k.name == "avx" && !haveAVX {
					b.Skip("this CPU has no AVX")
				}
				prev, cur := slices.Clone(pStar), make([][Lanes]float64, n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					k.run(&p, 1+i%walks.L, 0.15, pStar, prev, cur)
					prev, cur = cur, prev
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.NumEdges()), "ns/edge")
			})
		}
	})
}
