package core

// Tests for the engine's one miss path (miss.go): LRW-A blocks equal lone
// builds bit for bit, a topic listed twice is built once and counted
// once, a block installs what built past a failing sibling, build
// durations stay in per-topic units, and a fully cached building open
// costs what a cached open costs.

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/obs"
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
			o, err := Static(eng)().Open(ctx, OpenRequest{Method: MethodLRW, Topics: ts, User: 3})
			if err != nil {
				return nil, err
			}
			defer o.Done()
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
			o, err := Static(eng)().Open(ctx, OpenRequest{Method: MethodLRW, Topics: ts, User: 5, Cached: cached})
			if err != nil {
				t.Fatal(err)
			}
			o.Done()
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

// wideWorld is smallWorld's graph under a 40-topic space, enough topics
// for a building Open to spread its misses over several blocks a
// builder.
var wideWorld = sync.OnceValues(func() (*graph.Graph, *topics.Space) {
	g, _ := smallWorld()
	space, err := dataset.GenerateTopics(g, dataset.TopicConfig{
		Tags: 8, TopicsPerTag: 5, MeanTopicNodes: 15, Locality: 0.7, Seed: 11,
	})
	if err != nil {
		panic(err)
	}
	return g, space
})

func wideEngine(t testing.TB) *Engine {
	t.Helper()
	g, space := wideWorld()
	eng, err := New(g, space, Options{WalkL: 4, WalkR: 8, Theta: 0.02, Seed: 7, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.BuildIndexes(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return eng
}

// TestBuildingOpenFansOut: with two or more cores, a building Open over
// 36 invalidated topics — one of them listed twice — builds its misses
// on several builders. Each topic builds once, with no dedup wait, and
// the summaries and the answer are a serial engine's bits, under both
// methods. A failing topic fails the open with the first error in topic
// order, not the first one observed, once every other topic is cached;
// a context canceled mid-fan-out returns context.Canceled, stops the
// hand-out and leaves no goroutine behind. Overlap and cancellation are
// made by handshakes between builds, not by timing.
func TestBuildingOpenFansOut(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	ctx := context.Background()
	const distinct = 36
	ts := make([]topics.TopicID, 0, distinct+1)
	for i := range distinct {
		ts = append(ts, topics.TopicID(i))
		if i == 5 {
			ts = append(ts, 5) // listed twice, inside one block's reach
		}
	}
	open := func(ctx context.Context, eng *Engine, m Method) ([]summary.Summary, error) {
		o, err := Static(eng)().Open(ctx, OpenRequest{Method: m, Topics: ts, User: 3})
		if err != nil {
			return nil, err
		}
		defer o.Done()
		return o.Session.Summaries(), nil
	}

	for _, m := range []Method{MethodLRW, MethodRCL} {
		t.Run(m.String(), func(t *testing.T) {
			eng, ref := wideEngine(t), wideEngine(t)
			if err := eng.WarmSummaries(ctx, m, WarmOptions{}); err != nil {
				t.Fatal(err)
			}
			for _, id := range ts {
				eng.InvalidateTopic(id)
			}
			builds, waits := eng.met.builds[m].Value(), eng.met.dedupWaits[m].Value()
			got, err := open(ctx, eng, m)
			if err != nil {
				t.Fatal(err)
			}
			if n := eng.met.builds[m].Value() - builds; n != distinct {
				t.Errorf("pit_summary_builds_total rose by %d, want %d", n, distinct)
			}
			if n := eng.met.dedupWaits[m].Value() - waits; n != 0 {
				t.Errorf("%d dedup waits inside one open, want 0", n)
			}
			want := make([]summary.Summary, len(ts))
			for i, id := range ts {
				if want[i], err = ref.Summarize(ctx, m, id); err != nil {
					t.Fatal(err)
				}
			}
			if summary.Digest(got) != summary.Digest(want) {
				t.Fatal("the fanned-out open's summaries differ from serial builds")
			}
			for _, id := range ts {
				eng.InvalidateTopic(id)
			}
			q := Query{Method: m, Topics: allTopics(eng.Space())[:distinct], User: 3, K: 5, Fidelity: FidelityFull}
			gotAns, err := eng.Run(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			wantAns, err := ref.Run(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotAns.Ranking(), wantAns.Ranking()) {
				t.Fatalf("fanned-out answer %v, serial engine's %v", gotAns.Ranking(), wantAns.Ranking())
			}
		})
	}

	t.Run("first error in topic order", func(t *testing.T) {
		eng := wideEngine(t)
		low, high := errors.New("topic 20 failed"), errors.New("topic 30 failed")
		var inflight, peak atomic.Int32
		// Topics 20 and 30 sit in different blocks. Each build waits for
		// the other: topic 30's until topic 20's has started, topic 20's
		// until topic 30's has failed. So the two overlap, whichever a
		// builder reaches first, and topic 30 fails first.
		entered20, failed30 := make(chan struct{}), make(chan struct{})
		await := func(ch <-chan struct{}, what string) {
			select {
			case <-ch:
			case <-time.After(5 * time.Second):
				t.Errorf("waited 5s for %s: the open did not fan out", what)
			}
		}
		eng.SetSummarizer(MethodLRW, summarizeFunc(func(_ context.Context, id topics.TopicID) (summary.Summary, error) {
			n := inflight.Add(1)
			defer inflight.Add(-1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			switch id {
			case 20:
				close(entered20)
				await(failed30, "topic 30's build")
				return summary.Summary{}, low
			case 30:
				defer close(failed30)
				await(entered20, "topic 20's build")
				return summary.Summary{}, high
			}
			return summary.New(id, nil), nil
		}))
		if _, err := open(ctx, eng, MethodLRW); !errors.Is(err, low) {
			t.Fatalf("open over two failing topics returned %v, want topic 20's error", err)
		}
		if peak.Load() < 2 {
			t.Error("no two topics built at once: the open did not fan out")
		}
		for _, id := range ts {
			_, ok := eng.CachedSummary(MethodLRW, id)
			if failing := id == 20 || id == 30; ok == failing {
				t.Errorf("topic %d cached = %v after the open", id, ok)
			}
		}
	})

	t.Run("canceled mid-fan-out", func(t *testing.T) {
		eng := wideEngine(t)
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		var (
			calls    atomic.Int32
			stuck    atomic.Bool
			canceled = make(chan struct{})
		)
		// The 9th build cancels. The scheduler may run that build late,
		// so every later one waits until the cancel has happened: until
		// then the other builder could hand out and build every block.
		eng.SetSummarizer(MethodLRW, summarizeFunc(func(_ context.Context, id topics.TopicID) (summary.Summary, error) {
			switch n := calls.Add(1); {
			case n == 9:
				cancel()
				close(canceled)
			case n > 9:
				select {
				case <-canceled:
				case <-time.After(5 * time.Second):
					stuck.Store(true)
				}
			}
			return summary.New(id, nil), nil
		}))
		baseline := runtime.NumGoroutine()
		if _, err := open(ctx, eng, MethodLRW); !errors.Is(err, context.Canceled) {
			t.Fatalf("open canceled mid-fan-out returned %v, want context.Canceled", err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > baseline {
			t.Fatalf("%d goroutines after the canceled open, %d before", n, baseline)
		}
		// Counted once every build the open started has returned: a
		// waiter hangs up at once, but its led build runs on.
		if n := calls.Load(); n >= distinct {
			t.Errorf("%d topics built after a cancel at the 9th, want the hand-out stopped", n)
		}
		if stuck.Load() {
			t.Fatal("a build waited 5s for the 9th build's cancel")
		}
	})
}

// BenchmarkColdOpen is the refill the first query of a tag pays after a
// swap, minus HTTP and the search itself: a building Open over the tag's
// 120 topics on data_350k with every one of them invalidated — lookups,
// blocks through the corpus flight, SummarizeMany, installation.
func BenchmarkColdOpen(b *testing.B) { benchColdOpen(b, MethodLRW) }

// BenchmarkColdOpenRCL is BenchmarkColdOpen with RCL-A summaries: the
// in-process twin of tag_rcl's refill, one rcl.Summarize per topic.
func BenchmarkColdOpenRCL(b *testing.B) { benchColdOpen(b, MethodRCL) }

func benchColdOpen(b *testing.B, method Method) {
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
		o, err := Static(eng)().Open(ctx, OpenRequest{Method: method, Topics: ts, User: 0})
		if err != nil {
			b.Fatal(err)
		}
		o.Done()
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/tag")
	b.ReportMetric(float64(len(ts)), "topics")
}
