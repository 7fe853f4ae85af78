package core

// Concurrency tests: the summary cache under churn, singleflight
// materialization (exactly one summarization per topic under concurrent
// misses), waiter cancellation not aborting the shared build, and
// RunMany's worker clamping + first-error semantics. Run with -race.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/summary"
	"repro/internal/topics"
)

// countingSummarizer counts Summarize calls; a non-nil gate holds every
// call open until the test releases it.
type countingSummarizer struct {
	calls atomic.Int32
	gate  chan struct{}
}

func (c *countingSummarizer) Summarize(_ context.Context, t topics.TopicID) (summary.Summary, error) {
	c.calls.Add(1)
	if c.gate != nil {
		<-c.gate
	}
	return summary.New(t, nil), nil
}

// awaitDedupWaits blocks until at least n callers have joined another
// caller's in-flight build on eng, failing the test after 5 s.
func awaitDedupWaits(t *testing.T, eng *Engine, n uint64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); eng.corpus.flight.Stats().DedupedWaits < n; {
		if time.Now().After(deadline) {
			t.Errorf("only %d of %d callers joined the in-flight build after 5s", eng.corpus.flight.Stats().DedupedWaits, n)
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSummarizeSingleFlight: N concurrent misses on one uncached topic
// run the backend summarizer exactly once — the singleflight guarantee
// the ISSUE's tentpole demands, observed through the SetSummarizer seam.
func TestSummarizeSingleFlight(t *testing.T) {
	eng := builtEngine(t)
	cs := &countingSummarizer{gate: make(chan struct{})}
	eng.SetSummarizer(MethodLRW, cs)

	const workers = 16
	var wg sync.WaitGroup
	errs := make([]error, workers)
	started := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			started <- struct{}{}
			_, errs[w] = eng.Summarize(context.Background(), MethodLRW, 0)
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-started
	}
	// Every worker but the leader joins the in-flight build the gate is
	// holding open; then one release completes the shared call.
	awaitDedupWaits(t, eng, workers-1)
	close(cs.gate)
	wg.Wait()

	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if got := cs.calls.Load(); got != 1 {
		t.Fatalf("summarizer ran %d times for one topic, want exactly 1", got)
	}
	// Post-completion callers are cache hits, not new flights.
	if _, err := eng.Summarize(context.Background(), MethodLRW, 0); err != nil {
		t.Fatal(err)
	}
	if got := cs.calls.Load(); got != 1 {
		t.Fatalf("cache hit re-ran the summarizer (%d calls)", got)
	}
}

// TestSummarizeWaiterCancellationKeepsBuild: a waiter whose context
// expires mid-build unblocks with ctx.Err(), while the build itself
// keeps running and lands in the cache for the patient caller.
func TestSummarizeWaiterCancellationKeepsBuild(t *testing.T) {
	eng := builtEngine(t)
	cs := &countingSummarizer{gate: make(chan struct{})}
	eng.SetSummarizer(MethodLRW, cs)

	inFlight := make(chan struct{})
	patient := make(chan error, 1)
	go func() {
		close(inFlight)
		_, err := eng.Summarize(context.Background(), MethodLRW, 0)
		patient <- err
	}()
	<-inFlight
	// Wait until the patient caller's build is actually running.
	for cs.calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		// Cancel only once the impatient waiter has joined the build.
		awaitDedupWaits(t, eng, 1)
		cancel()
	}()
	if _, err := eng.Summarize(ctx, MethodLRW, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("impatient waiter got %v, want context.Canceled", err)
	}

	close(cs.gate)
	if err := <-patient; err != nil {
		t.Fatalf("patient caller: %v", err)
	}
	if got := cs.calls.Load(); got != 1 {
		t.Fatalf("summarizer ran %d times, want 1 — waiter cancellation must not abort or restart the build", got)
	}
	if got := eng.CachedSummaries(MethodLRW); got != 1 {
		t.Fatalf("cache holds %d LRW entries, want 1", got)
	}
}

// TestCacheChurnRace hammers the summary cache from every write path at
// once — Search (fill-on-miss), InvalidateTopic, PreloadSummaries, and
// the CachedSummaries stats walk — while -race watches. Searches must
// keep returning valid rankings throughout.
func TestCacheChurnRace(t *testing.T) {
	eng := builtEngine(t)

	// Materialize once to harvest valid summaries for the preload path.
	if err := eng.MaterializeAll(context.Background(), MethodLRW); err != nil {
		t.Fatal(err)
	}
	sums := make([]summary.Summary, eng.Space().NumTopics())
	for i := range sums {
		s, err := eng.Summarize(context.Background(), MethodLRW, topics.TopicID(i))
		if err != nil {
			t.Fatal(err)
		}
		sums[i] = s
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})

	wg.Add(1)
	go func() { // invalidation churn
		defer wg.Done()
		for r := 0; r < 40; r++ {
			for i := 0; i < eng.Space().NumTopics(); i++ {
				eng.InvalidateTopic(topics.TopicID(i))
			}
		}
		close(stop)
	}()
	wg.Add(1)
	go func() { // preload churn
		defer wg.Done()
		for {
			if err := eng.PreloadSummaries(MethodLRW, sums); err != nil {
				t.Errorf("preload: %v", err)
				return
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	wg.Add(1)
	go func() { // stats reader
		defer wg.Done()
		for {
			if n := eng.CachedSummaries(MethodLRW); n < 0 || n > len(sums) {
				t.Errorf("CachedSummaries = %d, want 0..%d", n, len(sums))
				return
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	for _, u := range []graph.NodeID{3, 17, 80} {
		wg.Add(1)
		go func(u graph.NodeID) { // searchers re-materializing on miss
			defer wg.Done()
			for {
				res, err := eng.Search(context.Background(), MethodLRW, "tag000", u, 3)
				if err != nil {
					t.Errorf("search user %d: %v", u, err)
					return
				}
				if len(res) == 0 {
					t.Errorf("search user %d returned no results", u)
					return
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}(u)
	}
	wg.Wait()
}

// TestFirstErrorMixedTypes: many goroutines racing to record errors of
// different concrete types must not panic and must keep exactly one.
// The original implementation used atomic.Value.CompareAndSwap, which
// panics ("compare and swap of inconsistently typed value") when the
// second store's concrete type differs from the first — e.g. one worker
// failing with a *fmt.wrapError while another records context.Canceled.
func TestFirstErrorMixedTypes(t *testing.T) {
	var f firstError
	base := errors.New("base failure")
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				f.set(base) // *errors.errorString
			} else {
				f.set(fmt.Errorf("worker %d: %w", i, base)) // *fmt.wrapError
			}
		}(i)
	}
	wg.Wait()
	if err := f.get(); !errors.Is(err, base) {
		t.Fatalf("recorded error %v does not wrap the base failure", err)
	}
}

// mixedErrSummarizer fails every topic, deliberately alternating two
// distinct concrete error types, and holds every call at a barrier
// until `need` of them are in flight — so the workers' error stores
// race against each other with inconsistent types.
type mixedErrSummarizer struct {
	need    int32
	arrived atomic.Int32
	release chan struct{}
	once    sync.Once
	errEven error
	errOdd  error
}

func (s *mixedErrSummarizer) Summarize(_ context.Context, t topics.TopicID) (summary.Summary, error) {
	if s.arrived.Add(1) >= s.need {
		s.once.Do(func() { close(s.release) })
	}
	<-s.release
	if t%2 == 0 {
		return summary.Summary{}, s.errEven
	}
	return summary.Summary{}, fmt.Errorf("topic %d: %w", t, s.errOdd)
}

// TestMaterializeManyMixedErrorTypes: two workers failing at the same
// instant with different concrete error types must surface one of them
// as an ordinary first error — not crash the process (the bug this
// pins: atomic.Value.CompareAndSwap panicking on inconsistently typed
// stores in the materialization pool's error collection).
func TestMaterializeManyMixedErrorTypes(t *testing.T) {
	eng := builtEngine(t)
	errEven := errors.New("even topic failed")
	errOdd := errors.New("odd topic failed")
	for round := 0; round < 25; round++ {
		ms := &mixedErrSummarizer{need: 2, release: make(chan struct{}), errEven: errEven, errOdd: errOdd}
		eng.SetSummarizer(MethodLRW, ms)
		_, err := eng.MaterializeTopics(context.Background(), MethodLRW, []topics.TopicID{0, 1}, 2)
		if err == nil {
			t.Fatal("MaterializeTopics with a failing summarizer returned nil error")
		}
		if !errors.Is(err, errEven) && !errors.Is(err, errOdd) {
			t.Fatalf("round %d: error %v is neither worker's failure", round, err)
		}
	}
}

// blockingSummarizer parks until its context is canceled — the stand-in
// for a long build only the engine lifecycle can stop.
type blockingSummarizer struct {
	entered chan struct{}
	once    sync.Once
}

func (b *blockingSummarizer) Summarize(ctx context.Context, _ topics.TopicID) (summary.Summary, error) {
	b.once.Do(func() { close(b.entered) })
	<-ctx.Done()
	return summary.Summary{}, ctx.Err()
}

// TestBuildNeverOverwritesPreload: a preload landing while a build of
// the same topic is in flight stays cached — the build installs only
// into an empty slot — while the build's waiter still gets the build.
func TestBuildNeverOverwritesPreload(t *testing.T) {
	eng := builtEngine(t)
	cs := &countingSummarizer{gate: make(chan struct{})}
	eng.SetSummarizer(MethodLRW, cs)

	done := make(chan summary.Summary, 1)
	go func() {
		s, err := eng.Summarize(context.Background(), MethodLRW, 0)
		if err != nil {
			t.Error(err)
		}
		done <- s
	}()
	for deadline := time.Now().Add(5 * time.Second); cs.calls.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("build did not start within 5s")
		}
		time.Sleep(time.Millisecond)
	}
	marker := summary.New(0, []summary.WeightedNode{{Node: 3, Weight: 1}})
	if err := eng.PreloadSummaries(MethodLRW, []summary.Summary{marker}); err != nil {
		t.Fatal(err)
	}
	close(cs.gate)
	if got := <-done; got.Len() != 0 {
		t.Errorf("waiter got %+v, want the build's empty summary", got)
	}
	if got, ok := eng.CachedSummary(MethodLRW, 0); !ok || got.Len() != 1 || got.Reps[0].Node != 3 {
		t.Errorf("CachedSummary = %+v, %v; want the preload, not the build", got, ok)
	}
	if got := cs.calls.Load(); got != 1 {
		t.Errorf("summarizer ran %d times, want 1", got)
	}
}

// TestCloseCancelsDetachedBuild: waiter cancellation deliberately never
// aborts a shared build, so engine shutdown must — Close cancels the
// lifecycle context the builds run on. Cache hits keep serving after
// Close; new builds fail with context.Canceled.
func TestCloseCancelsDetachedBuild(t *testing.T) {
	eng := builtEngine(t)
	// Materialize topic 1 with the real backend so the post-Close cache
	// path has something to hit.
	if _, err := eng.Summarize(context.Background(), MethodLRW, 1); err != nil {
		t.Fatal(err)
	}

	bs := &blockingSummarizer{entered: make(chan struct{})}
	eng.SetSummarizer(MethodLRW, bs)
	done := make(chan error, 1)
	go func() {
		_, err := eng.Summarize(context.Background(), MethodLRW, 0)
		done <- err
	}()
	<-bs.entered
	eng.Close()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("build after Close returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("detached build did not observe engine Close; builds must be bounded by the engine lifecycle")
	}

	// Already-materialized summaries still serve.
	if _, err := eng.Summarize(context.Background(), MethodLRW, 1); err != nil {
		t.Fatalf("cache hit after Close failed: %v", err)
	}
	// New builds are refused by the canceled lifecycle.
	if _, err := eng.Summarize(context.Background(), MethodLRW, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("cache miss after Close returned %v, want context.Canceled", err)
	}
}

// TestRunManyMixedErrors: a batch mixing valid and invalid users
// returns (nil, first error) — never partial results — and the error is
// classified ErrInvalidArgument for the HTTP layer.
func TestRunManyMixedErrors(t *testing.T) {
	eng := builtEngine(t)
	users := []graph.NodeID{1, 5, -7, 9, graph.NodeID(eng.Graph().NumNodes() + 3)}
	batch, err := runMany(context.Background(), eng, MethodLRW, "tag000", users, 3, 2)
	if err == nil {
		t.Fatal("mixed batch with invalid users accepted")
	}
	if !errors.Is(err, ErrInvalidArgument) {
		t.Errorf("error %v not classified ErrInvalidArgument", err)
	}
	if batch != nil {
		t.Errorf("failed batch returned partial results: %v", batch)
	}
}

// TestRunManyWorkerClamping: workers <= 0 means GOMAXPROCS on every
// path — including the early returns for empty batches and unknown
// queries, which used to be reachable before the clamp — and any worker
// count yields the same answers.
func TestRunManyWorkerClamping(t *testing.T) {
	eng := builtEngine(t)
	users := []graph.NodeID{2, 4, 6, 8}
	for _, workers := range []int{-3, 0, 1, 16} {
		// Early-return paths with an unclamped-looking worker count.
		if batch, err := runMany(context.Background(), eng, MethodLRW, "no-such-tag", users, 3, workers); err != nil || len(batch) != len(users) {
			t.Fatalf("workers=%d unknown query: %v, %v", workers, batch, err)
		}
		if batch, err := runMany(context.Background(), eng, MethodLRW, "tag000", nil, 3, workers); err != nil || len(batch) != 0 {
			t.Fatalf("workers=%d empty users: %v, %v", workers, batch, err)
		}
	}
	ref, err := runMany(context.Background(), eng, MethodLRW, "tag001", users, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{-1, 0, 2, 32} {
		got, err := runMany(context.Background(), eng, MethodLRW, "tag001", users, 3, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range ref {
			if len(got[i]) != len(ref[i]) {
				t.Fatalf("workers=%d user %d: %d results vs %d", workers, users[i], len(got[i]), len(ref[i]))
			}
			for j := range ref[i] {
				if got[i][j] != ref[i][j] {
					t.Errorf("workers=%d user %d result %d: %+v vs %+v", workers, users[i], j, got[i][j], ref[i][j])
				}
			}
		}
	}
}
