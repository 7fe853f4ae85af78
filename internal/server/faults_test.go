package server

// Fault-injection suite for the production-hardened serving stack. A
// scriptable summarizer is installed at the engine's SetSummarizer seam so
// each test can make summarization slow, panicking, erroring or blocking,
// and then assert the HTTP layer's contract: cancellation stops engine
// work early (499), saturation sheds load (429), shutdown drains
// in-flight requests, and summarizer faults walk the fidelity ladder —
// expired deadlines degrade to cached summaries (200 + "degraded": true,
// X-Pit-Tier: materialized) and only a request no tier can answer gets
// the ladder's explicit 503 + Retry-After (X-Pit-Tier: unavailable).

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/summary"
	"repro/internal/topics"
)

var errInjected = errors.New("injected backend failure")

// testLogger swallows the (intentionally noisy) access-log and panic lines
// the fault tests provoke.
func testLogger(t *testing.T) *log.Logger {
	t.Helper()
	return log.New(io.Discard, "", 0)
}

// faultTopics is TopicsPerTag in the fault-test dataset: every fault test
// queries tag000 and therefore fans out over this many summarizations.
const faultTopics = 6

// faultEngine builds a small fully indexed engine. Each test gets its own
// so injected faults and poisoned caches cannot leak across tests.
func faultEngine(t *testing.T) *core.Engine {
	t.Helper()
	g, err := dataset.GenerateGraph(dataset.GraphConfig{
		Nodes: 200, MinOutDegree: 2, MaxOutDegree: 6, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	space, err := dataset.GenerateTopics(g, dataset.TopicConfig{
		Tags: 1, TopicsPerTag: faultTopics, MeanTopicNodes: 12, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(g, space, core.Options{WalkL: 3, WalkR: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.BuildIndexes(context.Background()); err != nil {
		t.Fatal(err)
	}
	return eng
}

// fakeSummarizer is the chaos double: fn receives the 1-based call number
// and decides what that call does (block, panic, error, succeed).
type fakeSummarizer struct {
	calls atomic.Int32
	fn    func(n int32, ctx context.Context, id topics.TopicID) (summary.Summary, error)
}

func (f *fakeSummarizer) Summarize(ctx context.Context, id topics.TopicID) (summary.Summary, error) {
	return f.fn(f.calls.Add(1), ctx, id)
}

// dummySummary is a structurally valid single-representative summary.
func dummySummary(id topics.TopicID) summary.Summary {
	return summary.New(id, []summary.WeightedNode{{Node: 1, Weight: 0.5}})
}

func faultServer(t *testing.T, eng *core.Engine, cfg Config) *Server {
	t.Helper()
	cfg.Logger = testLogger(t)
	srv, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestCanceledRequestStopsEngineWork: when the client goes away mid-search
// the context threaded through the engine stops the topic fan-out early —
// the summarizer's progress counter stays far below the related-topic
// count — and the access log records 499.
func TestCanceledRequestStopsEngineWork(t *testing.T) {
	eng := faultEngine(t)
	srv := faultServer(t, eng, Config{})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fake := &fakeSummarizer{fn: func(n int32, _ context.Context, id topics.TopicID) (summary.Summary, error) {
		cancel() // the client disconnects during the first summarization
		return dummySummary(id), nil
	}}
	eng.SetSummarizer(core.MethodLRW, fake)

	req := httptest.NewRequest(http.MethodGet, "/search?q=tag000&user=3&k=3", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)

	if rec.Code != statusClientClosedRequest {
		t.Errorf("canceled request = %d, want %d: %s", rec.Code, statusClientClosedRequest, rec.Body)
	}
	if got := fake.calls.Load(); got >= faultTopics {
		t.Errorf("engine summarized %d of %d topics after cancel, want early stop", got, faultTopics)
	}
	var e errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.RequestID == "" {
		t.Errorf("error body missing request id: %s", rec.Body)
	}
}

// TestLoadSheddingReturns429: with MaxInflight=1 and the only slot held by
// a blocked request, the next request is shed immediately with 429 and a
// Retry-After hint; once the slot frees, requests are served again.
func TestLoadSheddingReturns429(t *testing.T) {
	eng := faultEngine(t)
	srv := faultServer(t, eng, Config{MaxInflight: 1})

	entered := make(chan struct{})
	release := make(chan struct{})
	fake := &fakeSummarizer{fn: func(n int32, ctx context.Context, id topics.TopicID) (summary.Summary, error) {
		if n == 1 {
			close(entered)
			select {
			case <-release:
			case <-ctx.Done():
				return summary.Summary{}, ctx.Err()
			}
		}
		return dummySummary(id), nil
	}}
	eng.SetSummarizer(core.MethodLRW, fake)

	firstDone := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/search?q=tag000&user=3&k=3", nil))
		firstDone <- rec.Code
	}()

	<-entered // the single in-flight slot is now held
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/search?q=tag000&user=4&k=3", nil))
	if rec.Code != http.StatusTooManyRequests {
		t.Errorf("saturated request = %d, want 429: %s", rec.Code, rec.Body)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After header")
	}
	// Health probes must keep answering under overload.
	if rec := probe(t, srv, "/healthz"); rec.Code != http.StatusOK {
		t.Errorf("healthz under saturation = %d, want 200", rec.Code)
	}

	close(release)
	if code := <-firstDone; code != http.StatusOK {
		t.Errorf("first (blocked) request = %d, want 200", code)
	}
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/search?q=tag000&user=5&k=3", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("request after slot freed = %d, want 200: %s", rec.Code, rec.Body)
	}
}

// TestPanickingSummarizerIsolated: a panic inside the engine call tree
// is recovered (singleflight turns it into a build error), the ladder
// is exhausted — nothing is cached — and the response is the
// ladder's explicit 503, not a process crash and not an opaque 500.
// The server — and even the same endpoint once the fault is removed —
// keeps serving.
func TestPanickingSummarizerIsolated(t *testing.T) {
	eng := faultEngine(t)
	srv := faultServer(t, eng, Config{})

	fake := &fakeSummarizer{fn: func(int32, context.Context, topics.TopicID) (summary.Summary, error) {
		panic("injected summarizer panic")
	}}
	eng.SetSummarizer(core.MethodLRW, fake)

	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/search?q=tag000&user=3&k=3", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("panicking search = %d, want 503: %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get(tierHeader); got != "unavailable" {
		t.Errorf("X-Pit-Tier = %q, want unavailable", got)
	}
	var e errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" || e.RequestID == "" {
		t.Errorf("503 body missing error/request id: %s", rec.Body)
	}

	// Other endpoints are unaffected while the fault is still installed.
	if rec := probe(t, srv, "/stats"); rec.Code != http.StatusOK {
		t.Errorf("stats after panic = %d, want 200", rec.Code)
	}
	// Removing the fault restores the built-in summarizer and /search heals.
	eng.SetSummarizer(core.MethodLRW, nil)
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/search?q=tag000&user=3&k=3", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("search after fault removed = %d, want 200: %s", rec.Code, rec.Body)
	}
}

// TestErroringSummarizerWalksLadder: a plain build failure is not a
// 500 — the ladder walks down, finds nothing cached, and answers
// with its explicit 503 + Retry-After.
func TestErroringSummarizerWalksLadder(t *testing.T) {
	erroring := func() *fakeSummarizer {
		return &fakeSummarizer{fn: func(int32, context.Context, topics.TopicID) (summary.Summary, error) {
			return summary.Summary{}, errInjected
		}}
	}

	t.Run("auto policy answers 503", func(t *testing.T) {
		eng := faultEngine(t)
		srv := faultServer(t, eng, Config{})
		eng.SetSummarizer(core.MethodLRW, erroring())

		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/search?q=tag000&user=3&k=3", nil))
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("erroring search = %d, want 503: %s", rec.Code, rec.Body)
		}
		if got := rec.Header().Get("Retry-After"); got == "" {
			t.Error("503 missing Retry-After header")
		}
		if got := rec.Header().Get(tierHeader); got != "unavailable" {
			t.Errorf("X-Pit-Tier = %q, want unavailable", got)
		}
	})
}

// TestGracefulShutdownDrainsInflight: a real http.Server with a slow
// request in flight is told to Shutdown; the listener closes to new
// connections but the slow request completes with 200 and Shutdown
// returns nil — no request is dropped on SIGTERM.
func TestGracefulShutdownDrainsInflight(t *testing.T) {
	eng := faultEngine(t)
	srv := faultServer(t, eng, Config{})

	started := make(chan struct{})
	fake := &fakeSummarizer{fn: func(n int32, ctx context.Context, id topics.TopicID) (summary.Summary, error) {
		if n == 1 {
			close(started)
			select {
			case <-time.After(300 * time.Millisecond): // slow but finite work
			case <-ctx.Done():
				return summary.Summary{}, ctx.Err()
			}
		}
		return dummySummary(id), nil
	}}
	eng.SetSummarizer(core.MethodLRW, fake)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	clientDone := make(chan int, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/search?q=tag000&user=3&k=3")
		if err != nil {
			clientDone <- -1
			return
		}
		resp.Body.Close()
		clientDone <- resp.StatusCode
	}()

	<-started // the slow request is now in flight
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		t.Errorf("Shutdown did not drain cleanly: %v", err)
	}
	if code := <-clientDone; code != http.StatusOK {
		t.Errorf("in-flight request during shutdown = %d, want 200", code)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Errorf("Serve returned %v, want ErrServerClosed", err)
	}
}

// TestDeadlineDegradesToMaterialized: some topics are pre-materialized,
// the rest hit a summarizer that blocks until the request deadline. The
// response must be a partial 200 with "degraded": true built from the
// cached summaries only — graceful degradation instead of a 504 — and
// the advertised tier (header and body) must say "materialized".
func TestDeadlineDegradesToMaterialized(t *testing.T) {
	eng := faultEngine(t)
	srv := faultServer(t, eng, Config{RequestTimeout: 100 * time.Millisecond})

	// Materialize half the topic space with the real LRW-A summarizer.
	const cached = faultTopics / 2
	for i := 0; i < cached; i++ {
		if _, err := eng.Summarize(context.Background(), core.MethodLRW, topics.TopicID(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Every remaining (uncached) topic is summarized by a fake that only
	// returns once the per-request deadline has expired.
	fake := &fakeSummarizer{fn: func(_ int32, ctx context.Context, _ topics.TopicID) (summary.Summary, error) {
		<-ctx.Done()
		return summary.Summary{}, ctx.Err()
	}}
	eng.SetSummarizer(core.MethodLRW, fake)

	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/search?q=tag000&user=3&k=6", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("degraded search = %d, want 200: %s", rec.Code, rec.Body)
	}
	var resp SearchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded {
		t.Error("response not marked degraded")
	}
	if resp.Tier != "materialized" {
		t.Errorf("body tier = %q, want materialized", resp.Tier)
	}
	if got := rec.Header().Get(tierHeader); got != "materialized" {
		t.Errorf("X-Pit-Tier = %q, want materialized", got)
	}
	if len(resp.Results) == 0 || len(resp.Results) > cached {
		t.Errorf("degraded results = %d, want 1..%d (cached summaries only)", len(resp.Results), cached)
	}
	if got := fake.calls.Load(); got == 0 {
		t.Error("fake summarizer never reached — test exercised nothing")
	}
}

// TestDeadlineWithNothingCachedIsUnavailable: when the deadline expires
// and no summaries are materialized at all, every rung of the ladder
// comes up empty — the honest answer is the ladder's explicit 503 with
// Retry-After and X-Pit-Tier: unavailable, not an empty 200 pretending
// a degraded answer exists.
func TestDeadlineWithNothingCachedIsUnavailable(t *testing.T) {
	eng := faultEngine(t)
	srv := faultServer(t, eng, Config{RequestTimeout: 50 * time.Millisecond})
	fake := &fakeSummarizer{fn: func(_ int32, ctx context.Context, _ topics.TopicID) (summary.Summary, error) {
		<-ctx.Done()
		return summary.Summary{}, ctx.Err()
	}}
	eng.SetSummarizer(core.MethodLRW, fake)

	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/search?q=tag000&user=3&k=3", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("fully-uncached search = %d, want 503: %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("Retry-After"); got == "" {
		t.Error("503 missing Retry-After header")
	}
	if got := rec.Header().Get(tierHeader); got != "unavailable" {
		t.Errorf("X-Pit-Tier = %q, want unavailable", got)
	}
	var e errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" || e.RequestID == "" {
		t.Errorf("503 body missing error/request id: %s", rec.Body)
	}
}

// TestWarmPathErrorsDontPoisonCache: WarmSummaries hitting an erroring
// summarizer part-way through must keep the summaries that already
// succeeded — a failed warm reports the error but never invalidates or
// re-builds prior work, so a retry after the fault clears only builds
// the missing topics.
func TestWarmPathErrorsDontPoisonCache(t *testing.T) {
	eng := faultEngine(t)

	// First three calls succeed, everything after errors. One worker makes
	// the topic order deterministic (0,1,2 cached, 3 fails, 4,5 unreached).
	const good = 3
	flaky := &fakeSummarizer{fn: func(n int32, _ context.Context, id topics.TopicID) (summary.Summary, error) {
		if n <= good {
			return dummySummary(id), nil
		}
		return summary.Summary{}, errInjected
	}}
	eng.SetSummarizer(core.MethodLRW, flaky)
	err := eng.WarmSummaries(context.Background(), core.MethodLRW, core.WarmOptions{Workers: 1})
	if !errors.Is(err, errInjected) {
		t.Fatalf("warm with erroring summarizer = %v, want errInjected", err)
	}
	if got := eng.CachedSummaries(core.MethodLRW); got != good {
		t.Fatalf("cached after failed warm = %d, want %d (succeeded topics must survive)", got, good)
	}

	// Heal the summarizer and retry: only the missing topics are built.
	healed := &fakeSummarizer{fn: func(_ int32, _ context.Context, id topics.TopicID) (summary.Summary, error) {
		return dummySummary(id), nil
	}}
	eng.SetSummarizer(core.MethodLRW, healed)
	if err := eng.WarmSummaries(context.Background(), core.MethodLRW, core.WarmOptions{Workers: 1}); err != nil {
		t.Fatalf("warm retry after heal: %v", err)
	}
	if got := eng.CachedSummaries(core.MethodLRW); got != faultTopics {
		t.Errorf("cached after retry = %d, want %d", got, faultTopics)
	}
	if got := healed.calls.Load(); got != faultTopics-good {
		t.Errorf("retry built %d topics, want %d (cached ones must not be re-summarized)", got, faultTopics-good)
	}
}
