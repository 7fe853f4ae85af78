package server

// Tests for the serving-path observability wiring and the two serving
// bugfixes that ride with it:
//
//   - statusRecorder must forward http.Flusher / http.ResponseController
//     through the middleware stack (it used to swallow both, breaking
//     streaming and flush-dependent handlers);
//   - a diversified (lambda > 0) search that degrades on deadline must
//     keep its lambda re-rank instead of silently falling back to the
//     plain influence ranking;
//   - the middleware counters (requests by status, latency, panics) and
//     the tier counter must record each failure mode: shed is code 429,
//     a gone client code 499, a degraded answer its tier.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/summary"
	"repro/internal/topics"
)

// obsServer is faultServer with an explicit registry so tests can both
// read the counters and assert on the exposition.
func obsServer(t *testing.T, eng *core.Engine, cfg Config) (*Server, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	cfg.Registry = reg
	return faultServer(t, eng, cfg), reg
}

// TestFlushForwardedThroughMiddleware is the regression test for the
// lost-Flush bug: a handler streaming through the full middleware stack
// must reach the connection's Flusher, both by direct type assertion and
// via http.ResponseController. Before the fix, statusRecorder embedded
// only http.ResponseWriter, so the assertion failed and
// ResponseController returned ErrNotSupported.
func TestFlushForwardedThroughMiddleware(t *testing.T) {
	eng := faultEngine(t)
	srv, _ := obsServer(t, eng, Config{MaxInflight: 4, RequestTimeout: time.Second})

	flushedMidHandler := false
	rec := httptest.NewRecorder()
	var h http.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f, ok := w.(http.Flusher)
		if !ok {
			t.Fatal("ResponseWriter lost http.Flusher through the middleware stack")
		}
		io.WriteString(w, "chunk1\n")
		f.Flush()
		flushedMidHandler = rec.Flushed
		if err := http.NewResponseController(w).Flush(); err != nil {
			t.Errorf("ResponseController.Flush through middleware: %v", err)
		}
		io.WriteString(w, "chunk2\n")
	})
	// The exact stack Handler() builds, around a streaming handler.
	h = srv.withTimeout(h)
	h = srv.withLimit(h)
	h = srv.withRecovery(h)
	h = srv.withAccessLog(h)
	h = srv.withRequestID(h)

	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/search", nil))
	if !flushedMidHandler {
		t.Error("Flush did not reach the underlying writer while the handler was streaming")
	}
	if body := rec.Body.String(); body != "chunk1\nchunk2\n" {
		t.Errorf("streamed body = %q", body)
	}
	if rec.Code != http.StatusOK {
		t.Errorf("streamed response = %d, want 200", rec.Code)
	}
}

// TestRequestMetricsRecorded: a served request lands in the per-route
// counter and latency histogram, and the exposition carries the HTTP
// families.
func TestRequestMetricsRecorded(t *testing.T) {
	eng := faultEngine(t)
	srv, reg := obsServer(t, eng, Config{})

	if rec := probe(t, srv, "/search?q=tag000&user=3&k=2"); rec.Code != http.StatusOK {
		t.Fatalf("search = %d: %s", rec.Code, rec.Body)
	}
	if rec := probe(t, srv, "/nosuch"); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown route = %d, want 404", rec.Code)
	}

	if got := srv.met.requests.With("/search", "200").Value(); got != 1 {
		t.Errorf(`requests{route="/search",code="200"} = %d, want 1`, got)
	}
	if got := srv.met.requests.With("other", "404").Value(); got != 1 {
		t.Errorf(`requests{route="other",code="404"} = %d, want 1`, got)
	}
	if got := srv.met.latency.With("/search").Count(); got != 1 {
		t.Errorf("latency observations for /search = %d, want 1", got)
	}
	if got := srv.met.inflight.Value(); got != 0 {
		t.Errorf("in-flight gauge after requests finished = %d, want 0", got)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"pit_http_requests_total",
		"pit_http_request_duration_seconds",
		"pit_http_inflight_requests",
		"pit_http_panics_total",
		"pit_search_tier_total",
	} {
		if !strings.Contains(b.String(), name) {
			t.Errorf("exposition missing %s", name)
		}
	}
}

// TestShedCounter: a request rejected by the in-flight limiter is
// counted as code 429 — the one shed count there is.
func TestShedCounter(t *testing.T) {
	eng := faultEngine(t)
	srv, _ := obsServer(t, eng, Config{MaxInflight: 1})

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

	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/search?q=tag000&user=3&k=3", nil))
	}()
	<-entered
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/search?q=tag000&user=4&k=3", nil))
	close(release)
	<-firstDone

	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated request = %d, want 429", rec.Code)
	}
	if got := srv.met.requests.With("/search", "429").Value(); got != 1 {
		t.Errorf(`requests{route="/search",code="429"} = %d, want 1`, got)
	}
}

// TestPanicCounter: a handler panic isolated by withRecovery increments
// the panic counter alongside the 500. (A summarizer panic would not do:
// the engine's singleflight recovers it into an error long before the
// HTTP recovery middleware, so the panic must come from the handler
// itself.)
func TestPanicCounter(t *testing.T) {
	eng := faultEngine(t)
	srv, _ := obsServer(t, eng, Config{})

	var h http.Handler = http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("injected handler panic")
	})
	h = srv.withRecovery(h)
	h = srv.withAccessLog(h)
	h = srv.withRequestID(h)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/search?q=tag000&user=3&k=3", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler = %d, want 500", rec.Code)
	}
	if got := srv.met.panics.Value(); got != 1 {
		t.Errorf("panic counter = %d, want 1", got)
	}
	if got := srv.met.requests.With("/search", "500").Value(); got != 1 {
		t.Errorf(`requests{route="/search",code="500"} = %d, want 1`, got)
	}
}

// TestDegradedAndClientClosedCounters: a deadline-degraded search is
// counted under its serving tier; a client disconnect is counted as code
// 499. Some topics are pre-materialized so the
// ladder has a materialized answer to degrade to (with nothing cached it
// would be the ladder's 503 instead — see faults_test.go).
func TestDegradedAndClientClosedCounters(t *testing.T) {
	eng := faultEngine(t)
	srv, _ := obsServer(t, eng, Config{RequestTimeout: 50 * time.Millisecond})
	for i := 0; i < faultTopics/2; i++ {
		if _, err := eng.Summarize(context.Background(), core.MethodLRW, topics.TopicID(i)); err != nil {
			t.Fatal(err)
		}
	}
	fake := &fakeSummarizer{fn: func(_ int32, ctx context.Context, _ topics.TopicID) (summary.Summary, error) {
		<-ctx.Done()
		return summary.Summary{}, ctx.Err()
	}}
	eng.SetSummarizer(core.MethodLRW, fake)

	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/search?q=tag000&user=3&k=3", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("degraded search = %d, want 200: %s", rec.Code, rec.Body)
	}
	if got := srv.met.tiers[core.TierMaterialized].Value(); got != 1 {
		t.Errorf(`tier{materialized} = %d, want 1`, got)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client is already gone
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/search?q=tag000&user=3&k=3", nil).WithContext(ctx))
	if rec.Code != statusClientClosedRequest {
		t.Fatalf("canceled request = %d, want %d", rec.Code, statusClientClosedRequest)
	}
	if got := srv.met.requests.With("/search", "499").Value(); got != 1 {
		t.Errorf(`requests{route="/search",code="499"} = %d, want 1`, got)
	}
}

// TestDegradedDiversifiedKeepsLambda is the regression test for the
// lambda-dropping degradation bug: a lambda > 0 search whose deadline
// expires must degrade to a *diversified* materialized ranking. Before
// the fix, the server's degradation path ran an undiversified
// materialized search unconditionally and the degraded answer silently lost the MMR re-rank
// the client asked for; the ladder's materialized tier now threads
// lambda through.
//
// The preloaded summaries are crafted (from the user's actual Γ
// propagation values) so the plain and diversified top-2 provably
// differ: topics 0, 1 and 3 ride representative a — topic 1 fully
// overlaps topic 0 — while topic 2 rides b.
func TestDegradedDiversifiedKeepsLambda(t *testing.T) {
	eng := faultEngine(t)
	srv, _ := obsServer(t, eng, Config{RequestTimeout: 50 * time.Millisecond})

	user := graph.NodeID(-1)
	var a, b graph.NodeID
	var pa, pb float64
	g := eng.Graph()
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
	x := 0.45 * pa / pb
	if x > 1 {
		x = 1
	}
	y := 0.5 * pb * x / pa
	if err := eng.PreloadSummaries(core.MethodLRW, []summary.Summary{
		summary.New(0, []summary.WeightedNode{{Node: a, Weight: 1}}),
		summary.New(1, []summary.WeightedNode{{Node: a, Weight: 0.9}}),
		summary.New(2, []summary.WeightedNode{{Node: b, Weight: x}}),
		summary.New(3, []summary.WeightedNode{{Node: a, Weight: y}}),
	}); err != nil {
		t.Fatal(err)
	}
	// The two remaining topics stay uncached and block past the deadline,
	// forcing the degraded path.
	fake := &fakeSummarizer{fn: func(_ int32, ctx context.Context, _ topics.TopicID) (summary.Summary, error) {
		<-ctx.Done()
		return summary.Summary{}, ctx.Err()
	}}
	eng.SetSummarizer(core.MethodLRW, fake)

	label := func(i int) string { return eng.Space().Topic(topics.TopicID(i)).Label }
	query := fmt.Sprintf("/search?q=tag000&user=%d&k=2&lambda=1", user)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, query, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("degraded diversified search = %d, want 200: %s", rec.Code, rec.Body)
	}
	var resp SearchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded {
		t.Error("response not marked degraded")
	}
	if len(resp.Results) != 2 {
		t.Fatalf("degraded diversified results = %d, want 2: %s", len(resp.Results), rec.Body)
	}
	// Topic 1 fully overlaps topic 0's representative; with lambda=1 its
	// adjusted score collapses and the disjoint topic 2 must take the
	// second slot. The pre-fix code returned the plain ranking [0, 1].
	if resp.Results[0].Topic != label(0) || resp.Results[1].Topic != label(2) {
		t.Errorf("degraded diversified top-2 = [%s %s], want [%s %s] (lambda re-rank lost?)",
			resp.Results[0].Topic, resp.Results[1].Topic, label(0), label(2))
	}
	if got := srv.met.tiers[core.TierMaterialized].Value(); got != 1 {
		t.Errorf(`tier{materialized} = %d, want 1`, got)
	}
}
