package core

// Tests for the engine's one miss path (miss.go): LRW-A blocks equal lone
// builds bit for bit, a topic listed twice is built once and counted
// once, a block installs what built past a failing sibling, build
// durations stay in per-topic units, and a fully cached building open
// costs what a cached open costs.

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/summary"
	"repro/internal/topics"
)

func allTopics(space *topics.Space) []topics.TopicID {
	ts := make([]topics.TopicID, space.NumTopics())
	for i := range ts {
		ts[i] = topics.TopicID(i)
	}
	return ts
}

// TestBlocksEqualLoneBuilds: one worker hands MaterializeTopics' misses
// to the 4-lane kernel in blocks; every summary must be the bits a lone
// Summarize (the scalar kernel) builds.
func TestBlocksEqualLoneBuilds(t *testing.T) {
	ctx := context.Background()
	eng, ref := builtEngine(t), builtEngine(t)
	got, err := eng.MaterializeTopics(ctx, MethodLRW, allTopics(eng.Space()), 1)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]summary.Summary, len(got))
	for i := range want {
		if want[i], err = ref.Summarize(ctx, MethodLRW, topics.TopicID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if summary.Digest(got) != summary.Digest(want) {
		t.Fatal("block-built summaries differ from lone builds")
	}
}

// TestTopicListedTwiceBuildsOnce: at every entry point that hands misses
// over in blocks, a topic listed twice — inside one block and across
// blocks — is built once, counted once in pit_summary_builds_total, and
// returned at every index that lists it.
func TestTopicListedTwiceBuildsOnce(t *testing.T) {
	ctx := context.Background()
	ts := []topics.TopicID{0, 1, 0, 2, 0, 5, 6, 7, 8, 1, 9}
	const distinct = 8
	ref := builtEngine(t)
	entries := map[string]func(*Engine) ([]summary.Summary, error){
		"MaterializeTopics/1": func(eng *Engine) ([]summary.Summary, error) {
			return eng.MaterializeTopics(ctx, MethodLRW, ts, 1)
		},
		"MaterializeTopics/2": func(eng *Engine) ([]summary.Summary, error) {
			return eng.MaterializeTopics(ctx, MethodLRW, ts, 2)
		},
		"Open": func(eng *Engine) ([]summary.Summary, error) {
			o, err := eng.Open(ctx, OpenRequest{Method: MethodLRW, Topics: ts, User: 3})
			if err != nil {
				return nil, err
			}
			defer o.Done(nil)
			return o.Session.Summaries(), nil
		},
		"WarmTopics": func(eng *Engine) ([]summary.Summary, error) {
			return nil, eng.WarmTopics(ctx, MethodLRW, ts, WarmOptions{Workers: 2})
		},
	}
	for name, run := range entries {
		for _, backend := range []string{"lrw", "override"} {
			eng, _ := metricEngine(t)
			var cs *countingSummarizer
			if backend == "override" {
				cs = &countingSummarizer{}
				eng.SetSummarizer(MethodLRW, cs)
			}
			sums, err := run(eng)
			if err != nil {
				t.Fatalf("%s on %s: %v", name, backend, err)
			}
			if got := eng.met.builds[MethodLRW].Value(); got != distinct {
				t.Errorf("%s on %s: pit_summary_builds_total = %d, want %d", name, backend, got, distinct)
			}
			if cs != nil && cs.calls.Load() != distinct {
				t.Errorf("%s on %s: the backend ran %d times, want %d", name, backend, cs.calls.Load(), distinct)
			}
			if sums == nil {
				continue
			}
			for i, s := range sums {
				want, ok := eng.CachedSummary(MethodLRW, ts[i])
				if backend == "lrw" {
					want, _ = ref.Summarize(ctx, MethodLRW, ts[i])
				}
				if !ok || s.Topic != ts[i] || summary.Digest([]summary.Summary{s}) != summary.Digest([]summary.Summary{want}) {
					t.Fatalf("%s on %s: index %d holds topic %d's summary %v, want topic %d's", name, backend, i, s.Topic, s, ts[i])
				}
			}
		}
	}
}

// TestBlockInstallsPastFailingSibling: on a topic-by-topic backend a
// failing topic fails alone — the block's other topics build, are
// installed, and are not rebuilt by the next call.
func TestBlockInstallsPastFailingSibling(t *testing.T) {
	eng := builtEngine(t)
	boom := errors.New("boom")
	cs := &countingSummarizer{}
	eng.SetSummarizer(MethodLRW, summarizeFunc(func(ctx context.Context, id topics.TopicID) (summary.Summary, error) {
		if id == 2 {
			return summary.Summary{}, boom
		}
		return cs.Summarize(ctx, id)
	}))
	if _, err := eng.MaterializeTopics(context.Background(), MethodLRW, []topics.TopicID{0, 1, 2, 3}, 1); !errors.Is(err, boom) {
		t.Fatalf("a block with a failing topic returned %v, want boom", err)
	}
	for _, id := range []topics.TopicID{0, 1, 3} {
		if _, ok := eng.CachedSummary(MethodLRW, id); !ok {
			t.Errorf("topic %d built beside a failing sibling but was not cached", id)
		}
	}
	if _, ok := eng.CachedSummary(MethodLRW, 2); ok {
		t.Error("the failing topic was cached")
	}
	if _, err := eng.MaterializeTopics(context.Background(), MethodLRW, []topics.TopicID{0, 1, 3}, 1); err != nil || cs.calls.Load() != 3 {
		t.Fatalf("re-reading the installed topics = %v after %d builds, want nil after 3", err, cs.calls.Load())
	}
}

// TestBuildDurationIsPerTopic: a block observes one duration per topic
// it built, each the topic's share of the block, so
// pit_summary_build_duration_seconds keeps per-topic units whatever the
// block size — the shares of a serial run add up to no more than its wall
// time.
func TestBuildDurationIsPerTopic(t *testing.T) {
	eng, _ := metricEngine(t)
	ts := allTopics(eng.Space())
	start := time.Now()
	if _, err := eng.MaterializeTopics(context.Background(), MethodLRW, ts, 1); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start).Seconds()
	if got := eng.met.buildDur.Count(); got != uint64(len(ts)) {
		t.Errorf("build duration observations = %d, want one per topic (%d)", got, len(ts))
	}
	if got := eng.met.builds[MethodLRW].Value(); got != uint64(len(ts)) {
		t.Errorf("pit_summary_builds_total = %d, want %d", got, len(ts))
	}
	if sum := eng.met.buildDur.Sum(); sum <= 0 || sum > wall {
		t.Errorf("observed build time %.6fs over a %.6fs serial run: not per-topic shares", sum, wall)
	}
}

// TestCachedBuildingOpenCostsNothingExtra: a building Open whose topics
// are all cached makes one cache lookup per topic and allocates exactly
// what a cached-only Open does.
func TestCachedBuildingOpenCostsNothingExtra(t *testing.T) {
	eng, _ := metricEngine(t)
	ctx := context.Background()
	if err := eng.WarmSummaries(ctx, MethodLRW, WarmOptions{}); err != nil {
		t.Fatal(err)
	}
	ts := eng.Space().Related("tag001")
	open := func(cached bool) func() {
		return func() {
			o, err := eng.Open(ctx, OpenRequest{Method: MethodLRW, Topics: ts, User: 5, Cached: cached})
			if err != nil {
				t.Fatal(err)
			}
			o.Done(nil)
		}
	}
	hits := eng.met.cacheHits[MethodLRW].Value()
	open(false)()
	if got := eng.met.cacheHits[MethodLRW].Value() - hits; got != uint64(len(ts)) {
		t.Errorf("a cached building Open made %d cache hits for %d topics", got, len(ts))
	}
	if raceEnabled {
		return // the search session's pool drops items under -race
	}
	if building, cached := testing.AllocsPerRun(50, open(false)), testing.AllocsPerRun(50, open(true)); building != cached {
		t.Errorf("a fully cached building Open allocates %v, a cached Open %v", building, cached)
	}
}

// BenchmarkColdOpen is the refill the first query of a tag pays after a
// swap, minus HTTP and the search itself: a building Open over the tag's
// 120 topics on data_350k with every one of them invalidated — lookups,
// blocks through the corpus flight, SummarizeMany, installation.
func BenchmarkColdOpen(b *testing.B) {
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
	eng, err := New(ds.Graph, ds.Space, Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	if err := eng.BuildIndexes(ctx); err != nil {
		b.Fatal(err)
	}
	ts := ds.Space.Related("tag000")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for _, t := range ts {
			eng.InvalidateTopic(t)
		}
		b.StartTimer()
		o, err := eng.Open(ctx, OpenRequest{Method: MethodLRW, Topics: ts, User: 0})
		if err != nil {
			b.Fatal(err)
		}
		o.Done(nil)
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/tag")
	b.ReportMetric(float64(len(ts)), "topics")
}
