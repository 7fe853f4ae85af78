package core

// PR 5 warm-up pipeline tests: pool clamping pinned by table, exactly-
// once corpus materialization, monotonic progress reporting, mid-corpus
// cancellation leaving the cache consistent (partially warmed topics
// stay valid, no stale writes), and a churn test racing WarmSummaries
// against InvalidateTopic (run with -race).

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/summary"
	"repro/internal/topics"
)

func TestClampWorkers(t *testing.T) {
	gmp := runtime.GOMAXPROCS(0)
	cases := []struct {
		requested, items, want int
	}{
		{requested: 1, items: 10, want: 1},
		{requested: 4, items: 10, want: 4},
		{requested: 16, items: 3, want: 3},         // never exceed the work
		{requested: 5, items: 0, want: 1},          // degenerate pool still runs
		{requested: -2, items: 0, want: 1},         // both degenerate
		{requested: 0, items: 1 << 30, want: gmp},  // ≤0 defaults to GOMAXPROCS
		{requested: -1, items: 1 << 30, want: gmp}, // any non-positive request
	}
	for _, tc := range cases {
		if got := clampWorkers(tc.requested, tc.items); got != tc.want {
			t.Errorf("clampWorkers(%d, %d) = %d, want %d", tc.requested, tc.items, got, tc.want)
		}
	}
	// The GOMAXPROCS default is still capped by the item count.
	if got := clampWorkers(0, 1); got != 1 {
		t.Errorf("clampWorkers(0, 1) = %d, want 1", got)
	}
}

func TestWarmSummariesValidation(t *testing.T) {
	g, space := smallWorld()
	eng, err := New(g, space, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.WarmSummaries(context.Background(), MethodLRW, WarmOptions{}); !errors.Is(err, ErrNotReady) {
		t.Fatalf("warm before BuildIndexes: %v, want ErrNotReady", err)
	}
	built := builtEngine(t)
	if err := built.WarmSummaries(context.Background(), Method(42), WarmOptions{}); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("warm with bogus method: %v, want ErrInvalidArgument", err)
	}
}

// TestWarmSummariesExactlyOnce: one warm builds every topic exactly once
// (through the singleflight/cache machinery), and a second warm over the
// hot corpus builds nothing.
func TestWarmSummariesExactlyOnce(t *testing.T) {
	eng := builtEngine(t)
	cs := &countingSummarizer{}
	eng.SetSummarizer(MethodLRW, cs)
	total := eng.Space().NumTopics()

	for _, w := range []int{4, 16} {
		if err := eng.WarmSummaries(context.Background(), MethodLRW, WarmOptions{Workers: w}); err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
	}
	if got := int(cs.calls.Load()); got != total {
		t.Fatalf("two warms ran %d summarizations, want exactly %d (one per topic)", got, total)
	}
	if got := eng.CachedSummaries(MethodLRW); got != total {
		t.Fatalf("cache holds %d summaries, want %d", got, total)
	}
}

// TestWarmSummariesProgress: the callback fires once per topic with a
// strictly increasing done count ending at total.
func TestWarmSummariesProgress(t *testing.T) {
	eng := builtEngine(t)
	total := eng.Space().NumTopics()
	var calls []int
	err := eng.WarmSummaries(context.Background(), MethodLRW, WarmOptions{
		Workers: 8,
		Progress: func(done, n int) {
			if n != total {
				t.Errorf("progress total = %d, want %d", n, total)
			}
			calls = append(calls, done) // serialized by the engine
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != total {
		t.Fatalf("progress fired %d times, want %d", len(calls), total)
	}
	for i, done := range calls {
		if done != i+1 {
			t.Fatalf("progress sequence %v not strictly increasing by one", calls)
		}
	}
}

// TestWarmSummariesCancelMidCorpus: cancellation halfway through the
// corpus returns ctx.Err(), and what did land in the cache is exactly
// what a fresh engine computes for those topics — partial warmth, never
// corruption. A follow-up warm finishes the remainder.
func TestWarmSummariesCancelMidCorpus(t *testing.T) {
	eng := builtEngine(t)
	total := eng.Space().NumTopics()
	ctx, cancel := context.WithCancel(context.Background())
	stopAt := total / 2
	err := eng.WarmSummaries(ctx, MethodLRW, WarmOptions{
		Workers: 4,
		Progress: func(done, _ int) {
			if done == stopAt {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-corpus cancel returned %v, want context.Canceled", err)
	}
	cached := eng.CachedSummaries(MethodLRW)
	if cached < stopAt || cached >= total {
		t.Fatalf("cancel at %d/%d left %d cached summaries", stopAt, total, cached)
	}

	// Every partially warmed topic must byte-match a fresh computation.
	ref := builtEngine(t)
	for i := 0; i < total; i++ {
		s, ok := eng.CachedSummary(MethodLRW, topics.TopicID(i))
		if !ok {
			continue
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("topic %d: cached summary invalid after cancel: %v", i, err)
		}
		want, err := ref.Summarize(context.Background(), MethodLRW, topics.TopicID(i))
		if err != nil {
			t.Fatal(err)
		}
		if summary.Digest([]summary.Summary{s}) != summary.Digest([]summary.Summary{want}) {
			t.Fatalf("topic %d: cached summary diverged from fresh computation", i)
		}
	}

	// The interrupted warm resumes cleanly.
	if err := eng.WarmSummaries(context.Background(), MethodLRW, WarmOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := eng.CachedSummaries(MethodLRW); got != total {
		t.Fatalf("resumed warm cached %d topics, want %d", got, total)
	}
}

// TestWarmSummariesFirstError: a failing topic surfaces as the first
// error observed, not an aggregate and not a panic.
func TestWarmSummariesFirstError(t *testing.T) {
	eng := builtEngine(t)
	boom := errors.New("boom")
	eng.SetSummarizer(MethodLRW, summarizeFunc(func(ctx context.Context, tt topics.TopicID) (summary.Summary, error) {
		if int(tt) == 3 {
			return summary.Summary{}, boom
		}
		return summary.New(tt, nil), nil
	}))
	err := eng.WarmSummaries(context.Background(), MethodLRW, WarmOptions{Workers: 4})
	if !errors.Is(err, boom) {
		t.Fatalf("warm over failing topic returned %v, want boom", err)
	}
}

// summarizeFunc adapts a function to summary.Summarizer.
type summarizeFunc func(context.Context, topics.TopicID) (summary.Summary, error)

func (f summarizeFunc) Summarize(ctx context.Context, t topics.TopicID) (summary.Summary, error) {
	return f(ctx, t)
}

// TestWarmSummariesMetrics: a full warm bumps pit_warm_topics_total by
// the corpus size and observes exactly one warm duration.
func TestWarmSummariesMetrics(t *testing.T) {
	g, space := smallWorld()
	reg := obs.NewRegistry()
	eng, err := New(g, space, Options{WalkL: 4, WalkR: 8, Theta: 0.02, Seed: 7, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.BuildIndexes(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := eng.WarmSummaries(context.Background(), MethodLRW, WarmOptions{}); err != nil {
		t.Fatal(err)
	}
	total := uint64(space.NumTopics())
	if got := eng.met.warmTopics[MethodLRW].Value(); got != total {
		t.Fatalf("pit_warm_topics_total{lrw} = %d, want %d", got, total)
	}
	if got := eng.met.warmDur.Count(); got != 1 {
		t.Fatalf("warm duration observations = %d, want 1", got)
	}
	// A canceled warm must not record a duration (the histogram tracks
	// successful whole-corpus warms only).
	eng2, err := New(g, space, Options{WalkL: 4, WalkR: 8, Theta: 0.02, Seed: 7, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.BuildIndexes(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := eng2.WarmSummaries(ctx, MethodLRW, WarmOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled warm: %v", err)
	}
	if got := eng2.met.warmDur.Count(); got != 0 {
		t.Fatalf("canceled warm recorded %d durations, want 0", got)
	}
}

// TestWarmChurnAgainstInvalidate races WarmSummaries with InvalidateTopic
// over the whole corpus (the §4.4 refresh scenario). Whatever interleaving
// the race detector explores, a final warm over a quiet engine must leave
// every topic cached with a summary byte-identical to a fresh build — a
// build that installs past an invalidation installs exactly that.
func TestWarmChurnAgainstInvalidate(t *testing.T) {
	eng := builtEngine(t)
	total := eng.Space().NumTopics()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := eng.WarmSummaries(context.Background(), MethodLRW, WarmOptions{Workers: 4}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < 40; round++ {
			eng.InvalidateTopic(topics.TopicID(round % total))
		}
		close(stop)
	}()
	wg.Wait()

	if err := eng.WarmSummaries(context.Background(), MethodLRW, WarmOptions{}); err != nil {
		t.Fatal(err)
	}
	ref := builtEngine(t)
	for i := 0; i < total; i++ {
		s, ok := eng.CachedSummary(MethodLRW, topics.TopicID(i))
		if !ok {
			t.Fatalf("topic %d not cached after final warm", i)
		}
		want, err := ref.Summarize(context.Background(), MethodLRW, topics.TopicID(i))
		if err != nil {
			t.Fatal(err)
		}
		if summary.Digest([]summary.Summary{s}) != summary.Digest([]summary.Summary{want}) {
			t.Fatalf("topic %d: churned cache diverged from fresh computation", i)
		}
	}
}

// TestMaterializeAllDelegatesToWarm: the legacy entry point still warms
// the whole corpus.
func TestMaterializeAllDelegatesToWarm(t *testing.T) {
	eng := builtEngine(t)
	if err := eng.MaterializeAll(context.Background(), MethodRCL); err != nil {
		t.Fatal(err)
	}
	if got, want := eng.CachedSummaries(MethodRCL), eng.Space().NumTopics(); got != want {
		t.Fatalf("MaterializeAll cached %d, want %d", got, want)
	}
}

// ExampleEngine_WarmSummaries shows the serving-startup shape: warm the
// corpus with a progress log, then flip readiness.
func ExampleEngine_WarmSummaries() {
	g, space := smallWorld()
	eng, _ := New(g, space, Options{WalkL: 4, WalkR: 8, Theta: 0.02, Seed: 7})
	_ = eng.BuildIndexes(context.Background())
	_ = eng.WarmSummaries(context.Background(), MethodLRW, WarmOptions{
		Progress: func(done, total int) {
			if done == total {
				fmt.Printf("corpus hot: %d/%d topics\n", done, total)
			}
		},
	})
	// Output: corpus hot: 12/12 topics
}

// BenchmarkWarmSummaries times a whole-corpus warm of data_350k's 1 200
// topics from a cold cache, per method, at one worker and at GOMAXPROCS.
// At two or more cores the max run must beat the one-worker run for both
// methods: an RCL-A warm that serialized its builds once ran slower at
// two workers than at one.
func BenchmarkWarmSummaries(b *testing.B) {
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
	for _, m := range []struct {
		name   string
		method Method
	}{{"lrw", MethodLRW}, {"rcl", MethodRCL}} {
		for _, w := range []struct {
			name    string
			workers int
		}{{"1", 1}, {"max", 0}} {
			b.Run(m.name+"/workers="+w.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					for t := range ds.Space.NumTopics() {
						eng.InvalidateTopic(topics.TopicID(t))
					}
					b.StartTimer()
					if err := eng.WarmSummaries(ctx, m.method, WarmOptions{Workers: w.workers}); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/warm")
			})
		}
	}
}
