package stream

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/obs"
)

// testEngine builds a small warm engine: generated graph + topics,
// indexes built, every LRW summary materialized so carried-summary
// arithmetic starts from a fully cached corpus.
func testEngine(t testing.TB, nodes int, seed int64) *core.Engine {
	t.Helper()
	g, err := dataset.GenerateGraph(dataset.GraphConfig{
		Nodes: nodes, MinOutDegree: 2, MaxOutDegree: 5, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	space, err := dataset.GenerateTopics(g, dataset.TopicConfig{
		Tags: 3, TopicsPerTag: 8, MeanTopicNodes: 10, Locality: 0.8, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(g, space, core.Options{WalkL: 3, WalkR: 4, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.BuildIndexes(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := eng.MaterializeAll(context.Background(), core.MethodLRW); err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestDecayedWeight(t *testing.T) {
	const w = 0.8
	if got := DecayedWeight(w, time.Hour, 0); got != w {
		t.Errorf("no half-life: %v, want %v", got, w)
	}
	if got := DecayedWeight(w, 0, time.Hour); got != w {
		t.Errorf("no age: %v, want %v", got, w)
	}
	if got := DecayedWeight(w, time.Minute, time.Minute); math.Abs(got-w/2) > 1e-12 {
		t.Errorf("one half-life: %v, want %v", got, w/2)
	}
	if got := DecayedWeight(w, 2*time.Minute, time.Minute); math.Abs(got-w/4) > 1e-12 {
		t.Errorf("two half-lives: %v, want %v", got, w/4)
	}
	// Stays inside the graph's weight domain for any age.
	for age := time.Second; age < time.Hour; age *= 3 {
		got := DecayedWeight(1.0, age, time.Minute)
		if got <= 0 || got > 1 {
			t.Fatalf("decay left the weight domain: %v at age %v", got, age)
		}
	}
	// Past ≈ 1 075 half-lives the product underflows: the smallest
	// subnormal is 2^-1074, so 1 074 half-lives still leave something of a
	// weight of 1 and 1 100 leave exactly nothing, never a negative or NaN.
	if got := DecayedWeight(1.0, 1074*time.Millisecond, time.Millisecond); got <= 0 {
		t.Errorf("1 074 half-lives: %v, want the smallest positive float", got)
	}
	for _, halfLives := range []time.Duration{1100, 3000, 1 << 40} {
		if got := DecayedWeight(w, halfLives*time.Millisecond, time.Millisecond); got != 0 {
			t.Errorf("%d half-lives: %v, want exactly 0", halfLives, got)
		}
	}
}

// An upsert so old that its weight decays to exactly 0 is dropped from
// the batch: forwarded, the 0 would reach dynamic.Apply as a delete and an
// old observation of an existing edge would remove it.
func TestFlushDropsFullyDecayedUpsert(t *testing.T) {
	eng := testEngine(t, 100, 5)
	now := time.Unix(1000, 0)
	reg := obs.NewRegistry()
	p, err := New(eng, Config{
		BatchSize:     1 << 20,
		DecayHalfLife: 10 * time.Millisecond, // with the 30 s below: 3 000 half-lives
		Clock:         func() time.Time { return now },
		Metrics:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	nbrs, ws := eng.Graph().OutNeighbors(0)
	if len(nbrs) == 0 {
		t.Fatal("node 0 has no out-edges in the generated graph")
	}
	if eng.Graph().HasEdge(1, 0) {
		t.Fatal("the generated graph already has 1→0")
	}
	if err := p.Submit(Event{From: 0, To: nbrs[0], Weight: 0.9}, Event{From: 1, To: 0, Weight: 0.9}); err != nil {
		t.Fatal(err)
	}
	now = now.Add(30 * time.Second)
	if err := p.Submit(Event{From: 2, To: 0, Weight: 0.7}); err != nil { // fresh: applied as is
		t.Fatal(err)
	}
	if err := p.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	fresh := p.Engine()
	defer fresh.Close()
	if w, ok := fresh.Graph().EdgeWeight(0, nbrs[0]); !ok || w != ws[0] {
		t.Errorf("existing edge 0→%d = (%v, %v) after a fully decayed upsert, want it untouched at %v", nbrs[0], w, ok, ws[0])
	}
	if fresh.Graph().HasEdge(1, 0) {
		t.Error("a fully decayed upsert created edge 1→0")
	}
	if w, _ := fresh.Graph().EdgeWeight(2, 0); w != 0.7 {
		t.Errorf("the fresh upsert landed at %v, want 0.7", w)
	}
	// A dropped upsert was submitted but never applied.
	submitted := reg.Counter("pit_stream_events_submitted_total", "")
	applied := reg.Counter("pit_stream_events_applied_total", "")
	if submitted.Value() != 3 || applied.Value() != 1 {
		t.Errorf("events submitted %d / applied %d, want 3 / 1 (two faded to nothing)", submitted.Value(), applied.Value())
	}
	if err := p.Submit(Event{From: 3, To: 0, Weight: 0.9}); err != nil {
		t.Fatal(err)
	}
	now = now.Add(30 * time.Second)
	if err := p.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s, a := submitted.Value()-3, applied.Value()-1; s != 1 || a != 0 {
		t.Errorf("a lone faded upsert: submitted %d / applied %d, want 1 / 0", s, a)
	}
	p.Engine().Close()
}

// Submit is all-or-nothing: one bad event rejects the whole call and
// enqueues nothing.
func TestSubmitValidation(t *testing.T) {
	eng := testEngine(t, 100, 3)
	defer eng.Close()
	p, err := New(eng, Config{})
	if err != nil {
		t.Fatal(err)
	}
	bad := []Event{
		{From: 0, To: 100, Weight: 0.5}, // out of range
		{From: -1, To: 1, Weight: 0.5},  // negative node
		{From: 2, To: 2, Weight: 0.5},   // self loop
		{From: 0, To: 1, Weight: -0.1},  // negative weight
		{From: 0, To: 1, Weight: 1.5},   // above 1
		{From: 0, To: 1, Weight: math.NaN()},
	}
	for _, ev := range bad {
		if err := p.Submit(ev); err == nil {
			t.Errorf("event %+v accepted", ev)
		}
	}
	// A mixed call fails atomically.
	if err := p.Submit(Event{From: 0, To: 1, Weight: 0.5}, bad[0]); err == nil {
		t.Error("mixed valid+invalid call accepted")
	}
	if n := p.PendingEvents(); n != 0 {
		t.Fatalf("pending = %d after rejected submissions, want 0", n)
	}
	if err := p.Submit(Event{From: 0, To: 1, Weight: 0.5}, Event{From: 1, To: 2, Weight: 0}); err != nil {
		t.Fatal(err)
	}
	if n := p.PendingEvents(); n != 2 {
		t.Fatalf("pending = %d, want 2", n)
	}
	// Events may target nodes granted by GrowNodes before any flush.
	if err := p.GrowNodes(1); err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(Event{From: 100, To: 0, Weight: 0.3}); err != nil {
		t.Errorf("event on grown node rejected: %v", err)
	}
}

// The node growth pending for one batch may reach the published graph's
// node count and no further, so one flush at most doubles the graph; a
// refused request adds nothing, and the published graph's growth raises
// the cap.
func TestGrowNodesAtMostDoubles(t *testing.T) {
	eng := testEngine(t, 100, 3)
	p, err := NewSet([]*core.Engine{eng}, Config{BatchSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer closeSet(p)
	for _, c := range []struct {
		n  int
		ok bool
	}{{1_000_000_000, false}, {math.MaxInt, false}, {60, true}, {41, false}, {40, true}, {1, false}} {
		if err := p.GrowNodes(c.n); (err == nil) != c.ok {
			t.Fatalf("GrowNodes(%d) = %v, want accepted %v", c.n, err, c.ok)
		}
	}
	if err := p.Submit(Event{From: 0, To: 199, Weight: 0.5}); err != nil {
		t.Fatalf("event on the last granted node: %v", err)
	}
	if err := p.Submit(Event{From: 0, To: 200, Weight: 0.5}); err == nil {
		t.Fatal("event past the granted nodes accepted")
	}
	if err := p.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := p.Current().Graph().NumNodes(); got != 200 {
		t.Fatalf("graph after the flush has %d nodes, want 200", got)
	}
	if err := p.GrowNodes(200); err != nil {
		t.Fatalf("GrowNodes(200) on a 200-node graph: %v", err)
	}
}

// A flush takes the accepted node growth into its batch before it
// publishes the grown graph. An event for a grown node submitted in that
// window — here from PrepareEngine, after the rebuild and before the
// publish — is valid all the same and lands with the next batch. A
// flush that fails takes its growth with it.
func TestSubmitDuringFlushSeesAcceptedGrowth(t *testing.T) {
	eng := testEngine(t, 100, 3)
	var (
		p         *Pipeline
		submitted bool
		submitErr error
	)
	p, err := NewSet([]*core.Engine{eng}, Config{
		BatchSize: 1 << 20,
		PrepareEngine: func(int, *core.Engine) {
			if !submitted {
				submitted = true
				submitErr = p.Submit(Event{From: 0, To: 100, Weight: 0.4})
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeSet(p)
	ctx := context.Background()
	if err := p.GrowNodes(1); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if submitErr != nil {
		t.Fatalf("event on a node the flush in progress is adding: %v", submitErr)
	}
	if err := p.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if w, ok := p.Engine().Graph().EdgeWeight(0, 100); !ok || w != 0.4 {
		t.Fatalf("edge 0→100 after the next flush = (%v, %v), want (0.4, true)", w, ok)
	}

	if err := p.GrowNodes(1); err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if err := p.Flush(canceled); !errors.Is(err, context.Canceled) {
		t.Fatalf("flush on a canceled context: %v, want context.Canceled", err)
	}
	if err := p.Submit(Event{From: 0, To: 101, Weight: 0.4}); err == nil {
		t.Fatal("event on a node whose growth failed to apply was accepted")
	}
}

// One explicit Flush applies the batch, publishes a fresh engine that
// serves, retires the old one (new queries refused, per PR 8 drain
// semantics), and reports carried-summary counts consistent with the
// affected set on a fully warmed corpus.
func TestFlushSwapsAndRetires(t *testing.T) {
	eng := testEngine(t, 300, 7)
	var (
		mu      sync.Mutex
		results []ApplyResult
	)
	p, err := New(eng, Config{
		BatchSize: 1 << 20, // flushes only explicitly
		OnApply: func(_ context.Context, r ApplyResult) {
			mu.Lock()
			results = append(results, r)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	old := p.Engine()
	if err := p.Submit(Event{From: 1, To: 2, Weight: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if p.Swaps() != 1 {
		t.Fatalf("swaps = %d, want 1", p.Swaps())
	}
	fresh := p.Engine()
	defer fresh.Close()
	if fresh == old {
		t.Fatal("engine pointer did not swap")
	}
	cachedAtSwap := fresh.CachedSummaries(core.MethodLRW) // before any query refills an affected topic
	if w, ok := fresh.Graph().EdgeWeight(1, 2); !ok || w != 0.5 {
		t.Fatalf("applied edge = (%v, %v), want (0.5, true)", w, ok)
	}
	if _, err := old.Search(ctx, core.MethodLRW, "tag000", 3, 3); !errors.Is(err, core.ErrNotReady) {
		t.Fatalf("retired engine answered: err = %v, want ErrNotReady", err)
	}
	res, err := fresh.Search(ctx, core.MethodLRW, "tag000", 3, 3)
	if err != nil || len(res) == 0 {
		t.Fatalf("fresh engine search = (%d results, %v)", len(res), err)
	}
	if len(results) != 1 {
		t.Fatalf("OnApply ran %d times, want 1", len(results))
	}
	r := results[0]
	if r.Seq != 1 {
		t.Errorf("ApplyResult{Seq: %d}, want 1", r.Seq)
	}
	// The corpus started fully materialized, so the swap snapshot equals
	// the carried count, and carried + affected partitions the topics.
	total := eng.Space().NumTopics()
	if cachedAtSwap != r.Stats.Carried[core.MethodLRW] {
		t.Errorf("cached at swap = %d, carried = %d; want equal", cachedAtSwap, r.Stats.Carried[core.MethodLRW])
	}
	if r.Stats.Carried[core.MethodLRW]+len(r.Stats.Affected) != total {
		t.Errorf("carried %d + affected %d != total %d",
			r.Stats.Carried[core.MethodLRW], len(r.Stats.Affected), total)
	}
	// An empty flush is a no-op: no swap, same engine.
	if err := p.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if p.Swaps() != 1 || p.Engine() != fresh {
		t.Error("empty flush swapped the engine")
	}
}

// Decay applies to queued events at flush time, from their observation
// timestamp to the flush clock; deletes (weight 0) never decay into
// phantom upserts.
func TestFlushDecaysQueuedWeights(t *testing.T) {
	eng := testEngine(t, 100, 5)
	now := time.Unix(1000, 0)
	p, err := New(eng, Config{
		BatchSize:     1 << 20,
		DecayHalfLife: time.Minute,
		Clock:         func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(Event{From: 1, To: 2, Weight: 0.8}); err != nil {
		t.Fatal(err)
	}
	// Delete an edge the generated graph is known to have, if any; a
	// nonexistent delete is a no-op, so pick one deterministically.
	nbrs, _ := eng.Graph().OutNeighbors(0)
	if len(nbrs) == 0 {
		t.Fatal("node 0 has no out-edges in the generated graph")
	}
	if err := p.Submit(Event{From: 0, To: nbrs[0], Weight: 0}); err != nil {
		t.Fatal(err)
	}
	now = now.Add(time.Minute) // one half-life in the queue
	if err := p.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	fresh := p.Engine()
	defer fresh.Close()
	if w, ok := fresh.Graph().EdgeWeight(1, 2); !ok || math.Abs(w-0.4) > 1e-12 {
		t.Errorf("decayed upsert = (%v, %v), want (0.4, true)", w, ok)
	}
	if fresh.Graph().HasEdge(0, nbrs[0]) {
		t.Error("deleted edge survived the decayed flush")
	}
}

// The background loop flushes when the pending batch reaches BatchSize.
func TestBatchingByCount(t *testing.T) {
	eng := testEngine(t, 100, 9)
	p, err := New(eng, Config{BatchSize: 3, MaxAge: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	defer func() {
		p.Stop()
		p.Engine().Close()
	}()
	if err := p.Submit(Event{From: 0, To: 1, Weight: 0.5}, Event{From: 1, To: 2, Weight: 0.5}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	if p.Swaps() != 0 {
		t.Fatal("pipeline flushed below BatchSize long before MaxAge")
	}
	if err := p.Submit(Event{From: 2, To: 3, Weight: 0.5}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return p.Swaps() == 1 })
}

// The background loop flushes a below-size batch once its oldest event
// reaches MaxAge — including events submitted while the loop slept idle.
func TestBatchingByAge(t *testing.T) {
	eng := testEngine(t, 100, 15)
	p, err := New(eng, Config{BatchSize: 1 << 20, MaxAge: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	defer func() {
		p.Stop()
		p.Engine().Close()
	}()
	if err := p.Submit(Event{From: 0, To: 1, Weight: 0.5}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return p.Swaps() == 1 })
	if n := p.PendingEvents(); n != 0 {
		t.Errorf("pending = %d after age flush, want 0", n)
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("condition not reached within %v", timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Churn test (run with -race): streaming batches are applied while
// query goroutines hammer SearchPlanned through the swap pointer. Over
// 22 engine swaps, zero queries may fail (a reader that loses the swap
// race retries on the fresh pointer), the carried-summary count of
// every batch must match the affected-topic arithmetic (the exact
// carried = cached-at-swap equality is TestFlushSwapsAndRetires', where
// no query races the count), and the run must not leak goroutines.
func TestChurnUnderSearchLoad(t *testing.T) {
	before := runtime.NumGoroutine()
	eng := testEngine(t, 300, 11)
	var (
		mu      sync.Mutex
		results []ApplyResult
	)
	p, err := New(eng, Config{
		BatchSize: 1 << 20, // flushed explicitly below
		OnApply: func(_ context.Context, r ApplyResult) {
			mu.Lock()
			results = append(results, r)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	const workers = 4
	var (
		failed [workers]error
		served [workers]int
		stop   = make(chan struct{})
		wg     sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			user := graph.NodeID(w + 1)
			for {
				select {
				case <-stop:
					return
				default:
				}
				eng := p.Engine()
				_, _, err := eng.SearchPlanned(ctx, core.MethodLRW, "tag000", user, 3, 0)
				for err != nil && errors.Is(err, core.ErrNotReady) {
					// Lost the swap race: retry only on a newer engine, so
					// the loop terminates.
					cur := p.Engine()
					if cur == eng {
						break
					}
					eng = cur
					_, _, err = eng.SearchPlanned(ctx, core.MethodLRW, "tag000", user, 3, 0)
				}
				if err != nil {
					failed[w] = err
					return
				}
				served[w]++
			}
		}(w)
	}

	const swaps = 22
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < swaps; i++ {
		cachedBefore := p.Engine().CachedSummaries(core.MethodLRW)
		from := graph.NodeID(rng.Intn(300))
		to := graph.NodeID(rng.Intn(300))
		if to == from {
			to = (to + 1) % 300
		}
		ev := Event{From: from, To: to, Weight: 0.1 + 0.8*rng.Float64()}
		if err := p.Submit(ev); err != nil {
			t.Fatal(err)
		}
		if err := p.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		r := results[len(results)-1]
		mu.Unlock()
		// The cache only grows between swaps (queries re-materialize
		// affected topics), so carrying everything outside the blast
		// region bounds the carried count from below.
		if min := cachedBefore - len(r.Stats.Affected); r.Stats.Carried[core.MethodLRW] < min {
			t.Fatalf("swap %d: carried %d < cached-before %d − affected %d",
				i, r.Stats.Carried[core.MethodLRW], cachedBefore, len(r.Stats.Affected))
		}
	}
	close(stop)
	wg.Wait()

	if p.Swaps() != swaps {
		t.Errorf("swaps = %d, want %d", p.Swaps(), swaps)
	}
	total := 0
	for w := 0; w < workers; w++ {
		if failed[w] != nil {
			t.Errorf("worker %d query failed during churn: %v", w, failed[w])
		}
		total += served[w]
	}
	if total == 0 {
		t.Fatal("no queries served during churn")
	}
	t.Logf("churn: %d queries served across %d swaps", total, swaps)

	p.Engine().Close()
	// Retired engines stop their lifecycle goroutines; give the runtime a
	// moment to reap them, then require the count back near the baseline.
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Errorf("goroutines = %d after churn, started with %d", n, before)
	}
}
