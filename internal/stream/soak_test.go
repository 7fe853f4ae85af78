package stream

// Streaming chaos soak (run under -race via `make chaos`): a pipeline
// whose every refreshed engine gets a fault-injected summarizer —
// through the same Config.PrepareEngine seam production would use for
// backend overrides — churns through batches while queries run. The
// injection targets one tag's topics with a 100% build-failure rate, so
// the soak can assert both directions deterministically: queries off
// the targeted tag must never fail, and the poisoned rebuilds must
// never leak into the carried state — every summary cached on the live
// engine after the soak has to validate, because carried summaries are
// copies of summaries that once built cleanly and a failed rebuild
// caches nothing.

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/summary"
	"repro/internal/topics"
)

func TestStreamChaosSoak(t *testing.T) {
	eng := testEngine(t, 300, 13)
	ctx := context.Background()
	space := eng.Space()
	total := space.NumTopics()

	targeted := map[topics.TopicID]bool{}
	for _, id := range space.Related("tag001") {
		targeted[id] = true
	}
	if len(targeted) == 0 {
		t.Fatal("no tag001 topics to target")
	}

	// Snapshot the real backend's summaries while the corpus is warm and
	// healthy: the chaos wrapper's inner summarizer replays them, so an
	// un-targeted rebuild always yields a correct summary.
	real := make(map[topics.TopicID]summary.Summary, total)
	for i := 0; i < total; i++ {
		s, err := eng.Summarize(ctx, core.MethodLRW, topics.TopicID(i))
		if err != nil {
			t.Fatal(err)
		}
		real[topics.TopicID(i)] = s
	}
	inner := chaos.SummarizeFunc(func(_ context.Context, id topics.TopicID) (summary.Summary, error) {
		return real[id], nil
	})

	var (
		mu       sync.Mutex
		wrappers []*chaos.Summarizer
	)
	poison := func(_ int, e *core.Engine) {
		cs := chaos.Wrap(inner, chaos.Config{
			Seed:     17,
			FailRate: 1.0, // every targeted rebuild fails
			Target:   func(id topics.TopicID) bool { return targeted[id] },
		})
		e.SetSummarizer(core.MethodLRW, cs)
		mu.Lock()
		wrappers = append(wrappers, cs)
		mu.Unlock()
	}
	poison(0, eng) // the initial engine is as chaotic as its successors

	p, err := New(eng, Config{
		BatchSize:     1 << 20, // flushed explicitly below
		PrepareEngine: poison,
	})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(41))
	for round := 0; round < 10; round++ {
		from := graph.NodeID(rng.Intn(300))
		to := graph.NodeID(rng.Intn(300))
		if to == from {
			to = (to + 1) % 300
		}
		if err := p.Submit(Event{From: from, To: to, Weight: 0.1 + 0.8*rng.Float64()}); err != nil {
			t.Fatal(err)
		}
		if err := p.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		live := p.Engine()
		// Queries off the targeted tag rebuild their affected topics
		// through the healthy inner path and must always answer.
		for _, q := range []string{"tag000", "tag002"} {
			if _, err := live.Search(ctx, core.MethodLRW, q, graph.NodeID(rng.Intn(300)), 3); err != nil {
				t.Fatalf("round %d: un-targeted query %q failed: %v", round, q, err)
			}
		}
		// Force a targeted rebuild every round: invalidate one tag001
		// summary, then query the tag. The rebuild goes through the fault
		// regime and fails — the ladder above (core, server) may
		// degrade, but down here the error must be the planned one.
		for id := range targeted {
			live.InvalidateTopic(id)
			break
		}
		if _, err := live.Search(ctx, core.MethodLRW, "tag001", graph.NodeID(rng.Intn(300)), 3); !errors.Is(err, chaos.ErrTransient) {
			t.Fatalf("round %d: targeted query error = %v, want ErrTransient", round, err)
		}
	}
	if p.Swaps() != 10 {
		t.Fatalf("swaps = %d, want 10", p.Swaps())
	}

	// Injection must actually have happened for the soak to mean anything.
	var failures int64
	mu.Lock()
	for _, cs := range wrappers {
		failures += cs.Stats().Failures
	}
	mu.Unlock()
	if failures == 0 {
		t.Fatal("chaos injected no failures; soak proved nothing")
	}

	// The core claim: nothing cached on the live engine is poisoned.
	live := p.Engine()
	defer live.Close()
	cached := 0
	for i := 0; i < total; i++ {
		s, ok := live.CachedSummary(core.MethodLRW, topics.TopicID(i))
		if !ok {
			continue
		}
		cached++
		if err := s.Validate(); err != nil {
			t.Errorf("carried summary for topic %d is poisoned: %v", i, err)
		}
	}
	if cached == 0 {
		t.Fatal("no summaries carried through the soak")
	}
	t.Logf("soak: %d/%d summaries cached and valid after 10 chaotic swaps (%d injected failures)",
		cached, total, failures)
}
