package core

// Tests for the engine's observability wiring (cache hit/miss,
// singleflight build vs. dedup counters, Close-canceled builds) and for
// the cached-only tier preserving the lambda re-rank.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/summary"
	"repro/internal/topics"
)

// metricEngine is builtEngine with an obs registry attached.
func metricEngine(t testing.TB) (*Engine, *obs.Registry) {
	t.Helper()
	g, space := smallWorld()
	reg := obs.NewRegistry()
	eng, err := New(g, space, Options{WalkL: 4, WalkR: 8, Theta: 0.02, Seed: 7, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.BuildIndexes(context.Background()); err != nil {
		t.Fatal(err)
	}
	return eng, reg
}

func TestMetricsCacheHitMissBuild(t *testing.T) {
	eng, reg := metricEngine(t)
	ctx := context.Background()

	if _, err := eng.Summarize(ctx, MethodLRW, 0); err != nil {
		t.Fatal(err)
	}
	if got := eng.met.cacheMisses[MethodLRW].Value(); got != 1 {
		t.Errorf("misses after first Summarize = %d, want 1", got)
	}
	if got := eng.met.builds[MethodLRW].Value(); got != 1 {
		t.Errorf("leader builds = %d, want 1", got)
	}
	if got := eng.met.buildDur.Count(); got != 1 {
		t.Errorf("build duration observations = %d, want 1", got)
	}

	if _, err := eng.Summarize(ctx, MethodLRW, 0); err != nil {
		t.Fatal(err)
	}
	if got := eng.met.cacheHits[MethodLRW].Value(); got != 1 {
		t.Errorf("hits after second Summarize = %d, want 1", got)
	}
	if got := eng.met.indexDur.Count(); got != 1 {
		t.Errorf("index duration observations = %d, want 1", got)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"pit_summary_cache_hits_total",
		"pit_summary_cache_misses_total",
		"pit_summary_builds_total",
		"pit_summary_build_dedup_waits_total",
		"pit_summary_builds_canceled_total",
		"pit_summary_build_duration_seconds",
		"pit_index_build_duration_seconds",
		"pit_search_frontier_truncations_total",
	} {
		if !strings.Contains(b.String(), name) {
			t.Errorf("exposition missing %s", name)
		}
	}
}

// TestMetricsDedupWaits: a thundering herd on one topic records one
// leader build and N-1 dedup waits. The gate holds the build open until
// every worker has joined the flight, so no straggler slips through the
// cache-hit path.
func TestMetricsDedupWaits(t *testing.T) {
	eng, _ := metricEngine(t)
	cs := &countingSummarizer{gate: make(chan struct{})}
	eng.SetSummarizer(MethodLRW, cs)

	const workers = 8
	var wg sync.WaitGroup
	started := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			started <- struct{}{}
			if _, err := eng.Summarize(context.Background(), MethodLRW, 1); err != nil {
				t.Error(err)
			}
		}()
	}
	for w := 0; w < workers; w++ {
		<-started
	}
	// The gate opens only once the whole herd has joined the build it is
	// holding open.
	awaitDedupWaits(t, eng, workers-1)
	close(cs.gate)
	wg.Wait()

	builds := eng.met.builds[MethodLRW].Value()
	waits := eng.met.dedupWaits[MethodLRW].Value()
	if builds != 1 {
		t.Errorf("leader builds = %d, want 1", builds)
	}
	if waits != workers-1 {
		t.Errorf("dedup waits = %d, want %d", waits, workers-1)
	}
	if misses := eng.met.cacheMisses[MethodLRW].Value(); misses != workers {
		t.Errorf("cache misses = %d, want %d (gate held every worker past the cache)", misses, workers)
	}
}

// TestMetricsCloseCanceledBuild: a build in flight when Engine.Close
// cancels the lifecycle context fails with context.Canceled and is
// counted as a shutdown-canceled build.
func TestMetricsCloseCanceledBuild(t *testing.T) {
	eng, _ := metricEngine(t)
	bs := &blockingSummarizer{entered: make(chan struct{})}
	eng.SetSummarizer(MethodLRW, bs)

	done := make(chan error, 1)
	go func() {
		_, err := eng.Summarize(context.Background(), MethodLRW, 2)
		done <- err
	}()
	<-bs.entered
	eng.Close()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("build racing Close returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("build did not observe Engine.Close")
	}
	if got := eng.met.buildsCanceled.Value(); got != 1 {
		t.Errorf("close-canceled builds = %d, want 1", got)
	}
	// Post-Close misses are refused by the already-canceled lifecycle and
	// counted too.
	if _, err := eng.Summarize(context.Background(), MethodLRW, 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("Summarize after Close returned %v, want context.Canceled", err)
	}
	if got := eng.met.buildsCanceled.Value(); got != 2 {
		t.Errorf("close-canceled builds after second refusal = %d, want 2", got)
	}
}

// diverseScenario builds an engine over a single-tag topic space and
// preloads 4 of its 6 topics with crafted summaries whose diversified
// and plain materialized rankings provably differ: topics 0, 1 and 3
// ride the same representative a (full overlap), topic 2 rides b.
func diverseScenario(t *testing.T) (eng *Engine, user graph.NodeID, labels [4]string) {
	t.Helper()
	g, err := dataset.GenerateGraph(dataset.GraphConfig{
		Nodes: 200, MinOutDegree: 2, MaxOutDegree: 6, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	space, err := dataset.GenerateTopics(g, dataset.TopicConfig{
		Tags: 1, TopicsPerTag: 6, MeanTopicNodes: 12, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err = New(g, space, Options{WalkL: 3, WalkR: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.BuildIndexes(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Find a user with at least two Γ entries and craft weights from its
	// actual propagation values so the intended score ordering
	// t0 > t1 > t2 > t3 > 0 holds exactly.
	user = graph.NodeID(-1)
	var a, b graph.NodeID
	var pa, pb float64
	for u := 0; u < g.NumNodes(); u++ {
		srcs, props, _ := eng.Prop().Gamma(graph.NodeID(u))
		if len(srcs) >= 2 {
			user, a, b, pa, pb = graph.NodeID(u), srcs[0], srcs[1], props[0], props[1]
			break
		}
	}
	if user < 0 {
		t.Fatal("no user with |Γ| >= 2 in the test graph")
	}
	x := 0.45 * pa / pb // topic 2's weight on b: score exactly 0.45·pa…
	if x > 1 {
		x = 1 // …unless capped; score pb is still < 0.45·pa then
	}
	y := 0.5 * pb * x / pa // topic 3 scores half of topic 2, via a
	sums := []summary.Summary{
		summary.New(0, []summary.WeightedNode{{Node: a, Weight: 1}}),
		summary.New(1, []summary.WeightedNode{{Node: a, Weight: 0.9}}),
		summary.New(2, []summary.WeightedNode{{Node: b, Weight: x}}),
		summary.New(3, []summary.WeightedNode{{Node: a, Weight: y}}),
	}
	if err := eng.PreloadSummaries(MethodLRW, sums); err != nil {
		t.Fatal(err)
	}
	for i := range labels {
		labels[i] = space.Topic(topics.TopicID(i)).Label
	}
	return eng, user, labels
}

// TestCachedQueryAppliesLambda is the core-level regression for the
// lambda-dropping degradation bug: the diversified materialized tier
// must re-rank by representative overlap, not return the plain
// influence ranking.
func TestCachedQueryAppliesLambda(t *testing.T) {
	eng, user, labels := diverseScenario(t)
	ctx := context.Background()
	eng.SetSummarizer(MethodLRW, failSummarizer(fmt.Errorf("kernel down")))

	// cached runs tag000 as a planned query; the uncached topics' builds
	// fail, so it degrades to the materialized summaries only.
	cached := func(lambda float64) ([]TopicResult, bool, error) {
		ans, err := eng.Run(ctx, Query{Text: "tag000", User: user, K: 2, Lambda: lambda})
		if err == nil && ans.Outcome.Tier != TierMaterialized {
			t.Fatalf("lambda %g: tier %v, want materialized", lambda, ans.Outcome.Tier)
		}
		return ans.Results, ans.Outcome.Complete, err
	}
	plain, complete, err := cached(0)
	if err != nil {
		t.Fatal(err)
	}
	if complete {
		t.Fatal("ranking reported complete with 2 of 6 topics uncached")
	}
	if len(plain) != 2 || plain[0].Topic.Label != labels[0] || plain[1].Topic.Label != labels[1] {
		t.Fatalf("plain materialized top-2 = %v, want [%s %s]", resultLabels(plain), labels[0], labels[1])
	}

	div, complete, err := cached(1.0)
	if err != nil {
		t.Fatal(err)
	}
	if complete {
		t.Error("diverse ranking reported complete with 2 of 6 topics uncached")
	}
	// Topic 1 fully overlaps topic 0's representative; with lambda=1 its
	// adjusted score collapses to 0 and topic 2 (disjoint reps) takes
	// the second slot.
	if len(div) != 2 || div[0].Topic.Label != labels[0] || div[1].Topic.Label != labels[2] {
		t.Errorf("diverse materialized top-2 = %v, want [%s %s]", resultLabels(div), labels[0], labels[2])
	}

}

func resultLabels(rs []TopicResult) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.Topic.Label
	}
	return out
}
