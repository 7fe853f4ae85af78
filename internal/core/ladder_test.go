package core_test

// The fidelity-ladder table, run through one helper against both
// backends of the query path: a single Engine and a 3-shard Router.
// They share core.Ladder, so every case must hold on both — tier
// selection under deadlines, degradation on build failure, the
// ErrUnavailable floor, pinned fidelity, client-cancel surfacing and a
// timed-out request's builds answering the next request complete.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/summary"
	"repro/internal/topics"
)

var ladderWorld = sync.OnceValues(func() (*graph.Graph, *topics.Space) {
	g, err := dataset.GenerateGraph(dataset.GraphConfig{
		Nodes: 400, MinOutDegree: 2, MaxOutDegree: 6, Seed: 11,
	})
	if err != nil {
		panic(err)
	}
	space, err := dataset.GenerateTopics(g, dataset.TopicConfig{
		Tags: 4, TopicsPerTag: 6, MeanTopicNodes: 15, Locality: 0.7, Seed: 11,
	})
	if err != nil {
		panic(err)
	}
	return g, space
})

type summarizeFunc func(context.Context, topics.TopicID) (summary.Summary, error)

func (f summarizeFunc) Summarize(ctx context.Context, t topics.TopicID) (summary.Summary, error) {
	return f(ctx, t)
}

// okSummary always succeeds instantly with a minimal valid summary.
func okSummary(_ context.Context, t topics.TopicID) (summary.Summary, error) {
	return summary.New(t, []summary.WeightedNode{{Node: 1, Weight: 0.5}}), nil
}

func failWith(err error) summarizeFunc {
	return func(context.Context, topics.TopicID) (summary.Summary, error) { return summary.Summary{}, err }
}

// ladderBackend is a Runner plus the handles the table needs to set up
// faults and read the shared metric families. Engines of a router
// register on one registry, so a family's value is the backend's total.
type ladderBackend struct {
	core.Runner
	reg       *obs.Registry
	engines   []*core.Engine
	summarize func(context.Context, core.Method, topics.TopicID) (summary.Summary, error)
	close     func()
}

func (b *ladderBackend) setSummarizer(s summary.Summarizer) {
	for _, eng := range b.engines {
		eng.SetSummarizer(core.MethodLRW, s)
	}
}

func (b *ladderBackend) invalidate(ids ...topics.TopicID) {
	for _, eng := range b.engines {
		for _, id := range ids {
			eng.InvalidateTopic(id)
		}
	}
}

// warm materializes the whole corpus, each topic on the engine that
// owns it.
func (b *ladderBackend) warm(t *testing.T) {
	t.Helper()
	_, space := ladderWorld()
	for id := 0; id < space.NumTopics(); id++ {
		if _, err := b.summarize(context.Background(), core.MethodLRW, topics.TopicID(id)); err != nil {
			t.Fatal(err)
		}
	}
}

func (b *ladderBackend) counter(name, label, value string) uint64 {
	return b.reg.CounterVec(name, "", label).With(value).Value()
}

type backendMaker func(t *testing.T, build bool) *ladderBackend

func ladderOptions(reg *obs.Registry) core.Options {
	return core.Options{WalkL: 4, WalkR: 8, Theta: 0.02, Seed: 7, Metrics: reg}
}

func engineBackend(t *testing.T, build bool) *ladderBackend {
	t.Helper()
	g, space := ladderWorld()
	reg := obs.NewRegistry()
	eng, err := core.New(g, space, ladderOptions(reg))
	if err != nil {
		t.Fatal(err)
	}
	if build {
		if err := eng.BuildIndexes(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(eng.Close)
	return &ladderBackend{Runner: eng, reg: reg, engines: []*core.Engine{eng}, summarize: eng.Summarize, close: eng.Close}
}

func routerBackend(t *testing.T, build bool) *ladderBackend {
	t.Helper()
	const n = 3
	g, space := ladderWorld()
	reg := obs.NewRegistry()
	engines := make([]*core.Engine, n)
	for i := range engines {
		eng, err := core.New(g, space, ladderOptions(reg))
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = eng
	}
	if build {
		if err := engines[0].BuildIndexes(context.Background()); err != nil {
			t.Fatal(err)
		}
		for _, eng := range engines[1:] {
			if err := eng.ShareIndexes(engines[0]); err != nil {
				t.Fatal(err)
			}
		}
	}
	part, err := shard.NewPartitioner(space, n)
	if err != nil {
		t.Fatal(err)
	}
	r, err := shard.New(part, core.Static(engines...), shard.Config{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	// The table is only a sharding test if the query really scatters.
	owners := map[int]bool{}
	for _, id := range space.Related("tag000") {
		owners[part.Owns(id)] = true
	}
	if len(owners) < 2 {
		t.Fatalf("tag000 lives on %d shard(s): the router table would not scatter", len(owners))
	}
	return &ladderBackend{Runner: r, reg: reg, engines: engines, summarize: r.Summarize, close: r.Close}
}

func TestPlannedLadder(t *testing.T) {
	t.Run("engine", func(t *testing.T) { ladderTable(t, engineBackend) })
	t.Run("router3", func(t *testing.T) { ladderTable(t, routerBackend) })
}

func ladderTable(t *testing.T, mk backendMaker) {
	ctx := context.Background()
	_, space := ladderWorld()
	related := space.Related("tag000")
	query := core.Query{Text: "tag000", User: 3, K: 2}

	t.Run("FullTier", func(t *testing.T) {
		b := mk(t, true)
		b.setSummarizer(summarizeFunc(okSummary))
		ans, err := b.Run(ctx, query)
		if err != nil {
			t.Fatal(err)
		}
		if out := ans.Outcome; out.Tier != core.TierFull || !out.Complete {
			t.Fatalf("outcome = %+v, want full/complete", out)
		}
		if len(ans.Results) != 2 {
			t.Fatalf("got %d results, want 2", len(ans.Results))
		}
		// Unknown query: a complete, empty full answer — nothing to degrade.
		empty := query
		empty.Text = "no-such-tag"
		ans, err = b.Run(ctx, empty)
		if err != nil || len(ans.Results) != 0 || ans.Outcome.Tier != core.TierFull || !ans.Outcome.Complete {
			t.Fatalf("empty query: %+v err=%v, want empty full answer", ans, err)
		}
	})

	t.Run("Validation", func(t *testing.T) {
		b := mk(t, true)
		bad := query
		bad.Method = core.Method(9)
		if _, err := b.Run(ctx, bad); !errors.Is(err, core.ErrInvalidArgument) {
			t.Errorf("bogus method: %v, want ErrInvalidArgument", err)
		}
		bad = query
		bad.User = -5
		if _, err := b.Run(ctx, bad); !errors.Is(err, core.ErrInvalidArgument) {
			t.Errorf("bogus user: %v, want ErrInvalidArgument", err)
		}
		for _, lambda := range []float64{math.NaN(), 1.5, -0.1} {
			bad = query
			bad.Lambda = lambda
			if _, err := b.Run(ctx, bad); !errors.Is(err, core.ErrInvalidArgument) {
				t.Errorf("lambda %v: %v, want ErrInvalidArgument", lambda, err)
			}
		}
		cold := mk(t, false)
		if _, err := cold.Run(ctx, query); !errors.Is(err, core.ErrNotReady) {
			t.Errorf("unbuilt backend: %v, want ErrNotReady", err)
		}
	})

	// A failing summarizer with a partially warmed cache degrades to a
	// partial materialized answer instead of erroring, and the
	// skipped-topic counter sees the gap.
	t.Run("DegradesToMaterialized", func(t *testing.T) {
		b := mk(t, true)
		b.setSummarizer(summarizeFunc(okSummary))
		b.warm(t)
		b.invalidate(related[0])
		b.setSummarizer(failWith(fmt.Errorf("kernel down")))

		all := query
		all.K = len(related)
		ans, err := b.Run(ctx, all)
		if err != nil {
			t.Fatalf("planned search errored instead of degrading: %v", err)
		}
		if out := ans.Outcome; out.Tier != core.TierMaterialized || out.Complete {
			t.Fatalf("outcome = %+v, want partial materialized", out)
		}
		if len(ans.Results) != len(related)-1 {
			t.Fatalf("got %d results, want %d (one topic uncached)", len(ans.Results), len(related)-1)
		}
		if got := b.counter("pit_materialized_skipped_topics_total", "method", "lrw"); got != 1 {
			t.Errorf("skipped counter = %d, want 1", got)
		}
	})

	// Nothing cached at any fidelity is an explicit ErrUnavailable, not a
	// 500-shaped error.
	t.Run("Unavailable", func(t *testing.T) {
		b := mk(t, true)
		b.setSummarizer(failWith(fmt.Errorf("kernel down")))
		ans, err := b.Run(ctx, query)
		if !errors.Is(err, core.ErrUnavailable) {
			t.Fatalf("err = %v, want ErrUnavailable", err)
		}
		if ans.Outcome.Tier != core.TierUnavailable {
			t.Fatalf("tier = %v, want unavailable", ans.Outcome.Tier)
		}
	})

	// A query that pins FidelityFull stays on its rung and surfaces a
	// build failure instead of degrading; the materialized rung a planned
	// query degrades to answers from the cache and never builds — over a
	// failing summarizer and a warm cache, a deadline already past when
	// the request arrives fails the full attempt before it opens a session.
	t.Run("PinnedFidelity", func(t *testing.T) {
		injected := fmt.Errorf("kernel down")
		strict := mk(t, true)
		strict.setSummarizer(failWith(injected))
		exact := query
		exact.Fidelity = core.FidelityFull
		if _, err := strict.Run(ctx, exact); !errors.Is(err, injected) {
			t.Fatalf("FidelityFull err = %v, want the build failure to surface", err)
		}

		b := mk(t, true)
		var calls atomic.Int32
		b.setSummarizer(summarizeFunc(func(ctx context.Context, id topics.TopicID) (summary.Summary, error) {
			calls.Add(1)
			return okSummary(ctx, id)
		}))
		b.warm(t)
		warmCalls := calls.Load()
		b.setSummarizer(summarizeFunc(func(context.Context, topics.TopicID) (summary.Summary, error) {
			calls.Add(1)
			return summary.Summary{}, injected
		}))
		past, cancel := context.WithDeadline(ctx, time.Now().Add(-time.Second))
		defer cancel()
		ans, err := b.Run(past, query)
		if out := ans.Outcome; err != nil || out.Tier != core.TierMaterialized || !out.Complete {
			t.Fatalf("materialized rung: %+v err=%v, want a complete materialized answer", out, err)
		}
		if len(ans.Results) == 0 {
			t.Fatal("the materialized rung returned no results from a warm cache")
		}
		if got := calls.Load(); got != warmCalls {
			t.Fatalf("the materialized rung ran %d builds on the query path", got-warmCalls)
		}
	})

	// A hung-up client gets its cancellation back, not a degraded answer
	// nobody will read.
	t.Run("ClientCancelSurfaces", func(t *testing.T) {
		b := mk(t, true)
		b.setSummarizer(summarizeFunc(func(ctx context.Context, _ topics.TopicID) (summary.Summary, error) {
			<-ctx.Done()
			return summary.Summary{}, ctx.Err()
		}))
		cctx, cancel := context.WithCancel(ctx)
		done := make(chan error, 1)
		go func() {
			_, err := b.Run(cctx, query)
			done <- err
		}()
		time.Sleep(10 * time.Millisecond)
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("planned search did not observe client cancellation")
		}
		// The detached builds are still pending; Close must cancel and reap
		// them.
		b.close()
	})

	// A deadline shorter than a build still starts the builds: a request
	// that times out degrades, and the summaries its full attempt kicked
	// off finish in the background, so a later request with the same
	// deadline is answered complete — however expensive the recorded
	// builds say a build is.
	t.Run("DeadlineStillWarms", func(t *testing.T) {
		b := mk(t, true)
		builds := b.reg.Histogram("pit_summary_build_duration_seconds", "", obs.DurationBuckets)
		for i := 0; i < 10; i++ {
			builds.Observe(1.0)
		}
		b.invalidate(related...)
		b.setSummarizer(summarizeFunc(func(ctx context.Context, id topics.TopicID) (summary.Summary, error) {
			select {
			case <-time.After(100 * time.Millisecond):
				return okSummary(ctx, id)
			case <-ctx.Done():
				return summary.Summary{}, ctx.Err()
			}
		}))
		stop := time.Now().Add(10 * time.Second)
		for attempt := 1; ; attempt++ {
			tight, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
			ans, err := b.Run(tight, query)
			cancel()
			if err == nil && ans.Outcome.Complete {
				break
			}
			if err != nil && !errors.Is(err, core.ErrUnavailable) {
				t.Fatalf("attempt %d: %v, want an answer or ErrUnavailable", attempt, err)
			}
			if time.Now().After(stop) {
				t.Fatalf("no complete answer after %d attempts under a 50ms deadline (last: %v): nothing was built", attempt, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}
