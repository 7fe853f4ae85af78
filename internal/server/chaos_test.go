package server

// Chaos suite (run under -race via `make chaos`): drives the full HTTP
// stack against an internal/chaos summarizer and checks the fidelity
// ladder's headline claims end to end —
//
//   - under sustained 30% injected build failure every request is
//     answered 200 from some tier, with zero unplanned 5xx;
//   - the advertised tier (X-Pit-Tier header and body field) always
//     matches the tier counter the server recorded;
//   - under a permanent outage each request retries its builds, at most
//     one summarizer call per related topic, and answers the planned
//     503; once the outage heals the next request is full fidelity;
//   - closing the engine after a chaotic run leaks no goroutines.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/summary"
	"repro/internal/topics"
)

// chaosHarness builds an instrumented engine + server pair whose
// summarizer is a chaos wrapper around the topic summaries the real
// LRW-A backend produced. All topics start warm; tests invalidate what
// they want rebuilt through the fault regime.
func chaosHarness(t *testing.T, ccfg chaos.Config) (*Server, *core.Engine, *chaos.Summarizer) {
	t.Helper()
	reg := obs.NewRegistry()
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
	eng, err := core.New(g, space, core.Options{
		WalkL: 3, WalkR: 4, Seed: 7, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.BuildIndexes(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)

	// Materialize every topic once through the real backend and keep the
	// results: the chaos wrapper's inner summarizer replays them, so a
	// surviving call always yields a correct summary.
	real := make(map[topics.TopicID]summary.Summary, faultTopics)
	for i := 0; i < faultTopics; i++ {
		s, err := eng.Summarize(context.Background(), core.MethodLRW, topics.TopicID(i))
		if err != nil {
			t.Fatal(err)
		}
		real[topics.TopicID(i)] = s
	}
	cs := chaos.Wrap(chaos.SummarizeFunc(func(_ context.Context, id topics.TopicID) (summary.Summary, error) {
		return real[id], nil
	}), ccfg)
	eng.SetSummarizer(core.MethodLRW, cs)

	srv, err := New(eng, Config{Logger: testLogger(t), Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	return srv, eng, cs
}

// chaosGet performs one /search and returns status, advertised tier
// (header) and decoded body.
func chaosGet(t *testing.T, srv *Server, target string) (int, string, SearchResponse) {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	var resp SearchResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("decode %s: %v: %s", target, err, rec.Body)
		}
	}
	return rec.Code, rec.Header().Get(tierHeader), resp
}

// TestChaosSteadyServiceUnderTransientFailure: 300 requests against a
// summarizer failing 30% of injected builds. Topics 0..2 stay warm
// (injection targets only 3..5, which are invalidated before every
// request so each request really rebuilds through the fault regime).
// Every request must be answered 200 from the full or materialized tier,
// the advertised tier must match the body, the per-tier counters must
// account for every request, and no 5xx of any kind may be recorded.
func TestChaosSteadyServiceUnderTransientFailure(t *testing.T) {
	srv, eng, cs := chaosHarness(t, chaos.Config{
		FailRate: 0.3,
		Target:   func(id topics.TopicID) bool { return id >= 3 },
	})

	const requests = 300
	served := map[string]int{}
	for i := 0; i < requests; i++ {
		for id := topics.TopicID(3); id < faultTopics; id++ {
			eng.InvalidateTopic(id)
		}
		code, headerTier, resp := chaosGet(t, srv, "/search?q=tag000&user=3&k=6")
		if code != http.StatusOK {
			t.Fatalf("request %d = %d, want 200 (unplanned non-200 under transient chaos)", i, code)
		}
		if headerTier != resp.Tier {
			t.Fatalf("request %d: X-Pit-Tier %q != body tier %q", i, headerTier, resp.Tier)
		}
		if resp.Tier != "full" && resp.Tier != "materialized" {
			t.Fatalf("request %d served from unexpected tier %q", i, resp.Tier)
		}
		if resp.Tier == "materialized" && !resp.Degraded {
			t.Fatalf("request %d: materialized answer not marked degraded", i)
		}
		served[resp.Tier]++
	}

	if served["full"] == 0 || served["materialized"] == 0 {
		t.Errorf("tier mix = %v, want both full and materialized exercised", served)
	}
	st := cs.Stats()
	if st.Failures == 0 {
		t.Error("chaos injected no failures — the sweep proved nothing")
	}
	// The server's tier counters must account for exactly the planned
	// requests, and agree with what the client saw.
	var sum uint64
	for _, tier := range core.Tiers {
		sum += srv.met.tiers[tier].Value()
	}
	if sum != requests {
		t.Errorf("tier counters sum = %d, want %d", sum, requests)
	}
	if got := srv.met.tiers[core.TierFull].Value(); got != uint64(served["full"]) {
		t.Errorf("full-tier counter = %d, client saw %d", got, served["full"])
	}
	for _, code := range []string{"500", "502", "503", "504"} {
		if got := srv.met.requests.With("/search", code).Value(); got != 0 {
			t.Errorf(`requests{route="/search",code=%q} = %d, want 0`, code, got)
		}
	}
	if got := srv.met.panics.Value(); got != 0 {
		t.Errorf("handler panic counter = %d, want 0", got)
	}
}

// TestChaosShutdownNoGoroutineLeak: a chaotic run that exercises the
// detached paths (503s under a permanent outage with nothing cached,
// injected latency raced against detached builds) must not leak
// goroutines once the engine is closed — Close cancels the lifecycle
// that bounds every detached build. On the way it pins the failure
// contract: a failing kernel is retried by every request, but never more
// than once per related topic, and a healed kernel serves full fidelity
// on the very next request.
func TestChaosShutdownNoGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()

	srv, eng, cs := chaosHarness(t, chaos.Config{})

	// One clean full-tier request, then break every rebuild: with every
	// topic invalidated there is nothing cached to degrade to, and the
	// ladder keeps no answers, so each request is the planned 503.
	if code, _, resp := chaosGet(t, srv, "/search?q=tag000&user=3&k=6"); code != http.StatusOK || resp.Tier != "full" {
		t.Fatalf("seed request = %d tier %q, want 200 full", code, resp.Tier)
	}
	cs.SetConfig(chaos.Config{PermanentOutage: true, Latency: 2 * time.Millisecond})

	const outage = 50
	related := int64(len(eng.Space().Related("tag000")))
	for i := 0; i < outage; i++ {
		for id := topics.TopicID(0); id < faultTopics; id++ {
			eng.InvalidateTopic(id)
		}
		before := cs.Stats().Calls
		code, headerTier, _ := chaosGet(t, srv, "/search?q=tag000&user=3&k=6")
		if code != http.StatusServiceUnavailable || headerTier != core.TierUnavailable.String() {
			t.Fatalf("request %d under outage = %d X-Pit-Tier %q, want 503 unavailable", i, code, headerTier)
		}
		// A failed build is not remembered, so the request retried its
		// topics; the corpus flight builds each at most once.
		if calls := cs.Stats().Calls - before; calls == 0 || calls > related {
			t.Fatalf("request %d under outage made %d summarizer calls, want 1..%d", i, calls, related)
		}
	}
	if got := srv.met.tiers[core.TierUnavailable].Value(); got != outage {
		t.Errorf(`tier{unavailable} = %d, want %d`, got, outage)
	}

	// Heal the kernel: nothing holds the outage back, so the next request
	// builds its topics and answers full.
	cs.SetConfig(chaos.Config{})
	if code, _, resp := chaosGet(t, srv, "/search?q=tag000&user=3&k=6"); code != http.StatusOK || resp.Tier != "full" {
		t.Fatalf("request after the outage healed = %d tier %q, want 200 full", code, resp.Tier)
	}

	eng.Close() // idempotent with the t.Cleanup close

	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+3 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines after Close = %d, baseline %d; dump:\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
