package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/shard"
)

func testOptions() options {
	return options{
		preset: "data_2k", scale: 0.1,
		theta: 0.01, walkL: 4, walkR: 8, seed: 1, maxK: 20,
		requestTimeout: 5 * time.Second, maxInflight: 16,
		shutdownTimeout: time.Second,
	}
}

func TestBuildAppAndServe(t *testing.T) {
	a, err := buildApp(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.prepare(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(a.srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/stats = %d", resp.StatusCode)
	}
	var stats struct {
		Nodes  int `json:"nodes"`
		Topics int `json:"topics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Nodes != 200 || stats.Topics == 0 {
		t.Errorf("stats = %+v", stats)
	}

	resp2, err := http.Get(ts.URL + "/search?q=tag000&user=3&k=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("/search = %d", resp2.StatusCode)
	}
}

// TestReadinessGatesAPI: before prepare the process must be alive
// (healthz 200) but not ready (readyz/search 503); after prepare both
// flip to success — the contract that lets index building run off the
// startup critical path.
func TestReadinessGatesAPI(t *testing.T) {
	o := testOptions()
	o.scale = 0.05
	a, err := buildApp(o)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(a.srv.Handler())
	defer ts.Close()

	codes := map[string]int{"/healthz": 200, "/readyz": 503, "/search?q=tag000&user=1": 503, "/stats": 503}
	for path, want := range codes {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("before prepare %s = %d, want %d", path, resp.StatusCode, want)
		}
	}

	if err := a.prepare(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/readyz", "/search?q=tag000&user=1", "/stats"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("after prepare %s = %d, want 200", path, resp.StatusCode)
		}
	}
}

func TestPrepareMaterialize(t *testing.T) {
	o := testOptions()
	o.scale = 0.05
	o.walkL, o.walkR = 3, 4
	o.warmSummaries = "lrw"
	a, err := buildApp(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.prepare(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(a.srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Topics    int `json:"topics"`
		CachedLRW int `json:"cached_summaries_lrw"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.CachedLRW != stats.Topics {
		t.Errorf("materialized %d of %d topics", stats.CachedLRW, stats.Topics)
	}
}

// TestWarmMethodsParsing pins the -warm-summaries selector, including
// rejection of unknown method names before any data loads.
func TestWarmMethodsParsing(t *testing.T) {
	cases := []struct {
		warm    string
		want    []core.Method
		wantErr bool
	}{
		{warm: "", want: nil},
		{warm: "lrw", want: []core.Method{core.MethodLRW}},
		{warm: "rcl", want: []core.Method{core.MethodRCL}},
		{warm: "all", want: []core.Method{core.MethodLRW, core.MethodRCL}},
		{warm: "both", wantErr: true},
		{warm: "LRW", wantErr: true},
	}
	for _, tc := range cases {
		o := options{warmSummaries: tc.warm}
		got, err := o.warmMethods()
		if tc.wantErr {
			if err == nil {
				t.Errorf("warmMethods(%q) accepted, want error", tc.warm)
			}
			continue
		}
		if err != nil {
			t.Errorf("warmMethods(%q): %v", tc.warm, err)
			continue
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("warmMethods(%q) = %v, want %v", tc.warm, got, tc.want)
		}
	}
}

// TestBuildAppRejectsBadWarmSelector: a bogus -warm-summaries value fails
// fast, before dataset generation or index builds.
func TestBuildAppRejectsBadWarmSelector(t *testing.T) {
	o := testOptions()
	o.warmSummaries = "everything"
	if _, err := buildApp(o); err == nil {
		t.Fatal("buildApp accepted unknown -warm-summaries value")
	}
}

// TestPrepareWarmsBothMethods: -warm-summaries all leaves both caches at
// corpus size before the server flips ready.
func TestPrepareWarmsBothMethods(t *testing.T) {
	o := testOptions()
	o.scale = 0.05
	o.walkL, o.walkR = 3, 4
	o.warmSummaries = "all"
	a, err := buildApp(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.prepare(context.Background()); err != nil {
		t.Fatal(err)
	}
	total := a.eng.Space().NumTopics()
	for _, m := range []core.Method{core.MethodLRW, core.MethodRCL} {
		if got := a.eng.CachedSummaries(m); got != total {
			t.Errorf("method %v: warmed %d of %d topics", m, got, total)
		}
	}
}

// TestPrepareCanceledMidMaterialize: a shutdown signal during the
// materialization phase aborts prepare with the context error instead of
// finishing the whole topic space.
func TestPrepareCanceledMidMaterialize(t *testing.T) {
	o := testOptions()
	o.scale = 0.05
	o.warmSummaries = "lrw"
	a, err := buildApp(o)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := a.prepare(ctx); err == nil {
		t.Fatal("prepare with canceled context succeeded")
	}
	if a.srv.Ready() {
		t.Error("server marked ready despite aborted prepare")
	}
}

// TestOpsHandlerServesMetricsAndPprof: the operational surface exposes
// the Prometheus exposition (with families from every instrumented
// layer) and the pprof handlers, and is a separate handler from the API
// — the API mux must keep answering 404 for /metrics.
func TestOpsHandlerServesMetricsAndPprof(t *testing.T) {
	o := testOptions()
	o.scale = 0.05
	o.streamBatch = 8 // register the streaming/subscription families too
	a, err := buildApp(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.prepare(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer a.closeEngine()
	ops := httptest.NewServer(a.opsHandler())
	defer ops.Close()

	resp, err := http.Get(ops.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range smokeMetrics {
		if !strings.Contains(string(body), name) {
			t.Errorf("exposition missing %s", name)
		}
	}

	resp2, err := http.Get(ops.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline = %d", resp2.StatusCode)
	}

	api := httptest.NewServer(a.srv.Handler())
	defer api.Close()
	resp3, err := http.Get(api.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Errorf("API /metrics = %d, want 404 (ops surface must stay off the API listener)", resp3.StatusCode)
	}
}

// TestPrepareColdStartsFromArtifacts: the first prepare builds, warms
// and saves artifacts; a second app pointed at the same directory loads
// them instead of rebuilding and serves identical search results.
func TestPrepareColdStartsFromArtifacts(t *testing.T) {
	dir := t.TempDir()
	o := testOptions()
	o.scale = 0.05
	o.walkL, o.walkR = 3, 4
	o.warmSummaries = "lrw"
	o.indexDir = dir

	search := func(a *app) string {
		ts := httptest.NewServer(a.srv.Handler())
		defer ts.Close()
		resp, err := http.Get(ts.URL + "/search?q=tag000&user=3&k=5")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/search = %d", resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	first, err := buildApp(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.prepare(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !core.ArtifactsExist(dir) {
		t.Fatal("prepare did not save artifacts")
	}
	want := search(first)
	first.eng.Close()

	second, err := buildApp(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := second.prepare(context.Background()); err != nil {
		t.Fatalf("cold start from artifacts: %v", err)
	}
	defer second.eng.Close()
	if got := search(second); got != want {
		t.Errorf("cold-started answer differs:\n got %s\nwant %s", got, want)
	}
}

// TestPrepareRefusesNonV2Artifacts: an artifact directory holding
// anything but v2 files — here what the retired gob v1 format left
// behind — fails prepare with storage's error (expected format, rebuild
// command) instead of serving or silently rebuilding, single-engine and
// sharded alike.
func TestPrepareRefusesNonV2Artifacts(t *testing.T) {
	legacy := []byte("(\x7f\x03\x01\x01\benvelope\x01\xff\x80 pitsearch-index-v1")
	refused := func(t *testing.T, o options) {
		t.Helper()
		a, err := buildApp(o)
		if err != nil {
			t.Fatal(err)
		}
		defer a.closeEngine()
		err = a.prepare(context.Background())
		if err == nil {
			t.Fatal("prepare served from a non-v2 artifact")
		}
		for _, want := range []string{"storage: not a pitsearch-index-v2", "pitsearch-index-v1", "datagen -index-dir"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not say %q", err, want)
			}
		}
	}
	o := testOptions()
	o.scale = 0.05
	o.walkL, o.walkR = 3, 4

	t.Run("index-dir", func(t *testing.T) {
		o := o
		o.indexDir = t.TempDir()
		for _, name := range []string{core.WalkArtifact, core.PropArtifact} {
			if err := os.WriteFile(filepath.Join(o.indexDir, name), legacy, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		refused(t, o)
	})
	t.Run("shard-index-dir", func(t *testing.T) {
		o := o
		o.shards = 2
		o.shardIndexDir = t.TempDir()
		first, err := buildApp(o)
		if err != nil {
			t.Fatal(err)
		}
		err = first.prepare(context.Background())
		first.closeEngine()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(shard.ShardDir(o.shardIndexDir, 1), core.WalkArtifact), legacy, 0o644); err != nil {
			t.Fatal(err)
		}
		refused(t, o)
	})
}

// TestShardedStreamingServesGrownUser: under -shards with streaming, a
// user added through POST /updates is searchable once the batch has
// swapped in — the router validates against the graph its shards serve
// now, like the single-engine server.
func TestShardedStreamingServesGrownUser(t *testing.T) {
	o := testOptions()
	o.shards = 2
	o.streamBatch = 2
	o.streamMaxAge = time.Hour // only the full batch flushes
	a, err := buildApp(o)
	if err != nil {
		t.Fatal(err)
	}
	defer a.closeEngine()
	if err := a.prepare(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(a.srv.Handler())
	defer ts.Close()

	grown := a.router.Graph().NumNodes()
	search := func() int {
		resp, err := http.Get(fmt.Sprintf("%s/search?q=tag000&user=%d&k=3", ts.URL, grown))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if code := search(); code != http.StatusNotFound {
		t.Fatalf("/search as a user not yet in the graph = %d, want 404", code)
	}

	body := fmt.Sprintf(`{"new_nodes":1,"updates":[{"from":3,"to":%d,"weight":0.5},{"from":7,"to":%d,"weight":0.5}]}`, grown, grown)
	resp, err := http.Post(ts.URL+"/updates", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("/updates = %d, want 202", resp.StatusCode)
	}
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < o.shards; i++ {
		for a.set.Pipeline(i).Swaps() == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("shard %d never swapped the batch in", i)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if code := search(); code != http.StatusOK {
		t.Fatalf("/search as the grown user after the swap = %d, want 200", code)
	}
}

// TestRunSmoke: the -smoke one-shot passes end to end against a live
// process on ephemeral ports.
func TestRunSmoke(t *testing.T) {
	o := testOptions()
	if err := runSmoke(o); err != nil {
		t.Fatal(err)
	}
}

// TestPlanConfigParsing pins the planner-flag resolution: policy names,
// the 0-means-disabled mapping of -stale-ttl, and breaker passthrough.
func TestPlanConfigParsing(t *testing.T) {
	o := testOptions()
	o.tierPolicy = "materialized"
	o.staleTTL = 2 * time.Minute
	o.breakerThreshold = 7
	o.breakerCooldown = 3 * time.Second
	o.breakerMaxCooldown = 90 * time.Second
	pcfg, err := o.planConfig()
	if err != nil {
		t.Fatal(err)
	}
	if pcfg.Policy != plan.PolicyMaterialized || pcfg.StaleTTL != 2*time.Minute {
		t.Errorf("planConfig = %+v", pcfg)
	}
	if pcfg.Breaker.Threshold != 7 || pcfg.Breaker.Cooldown != 3*time.Second || pcfg.Breaker.MaxCooldown != 90*time.Second {
		t.Errorf("breaker config not forwarded: %+v", pcfg.Breaker)
	}

	o = testOptions() // zero tierPolicy means auto, zero staleTTL disables
	pcfg, err = o.planConfig()
	if err != nil {
		t.Fatal(err)
	}
	if pcfg.Policy != plan.PolicyAuto {
		t.Errorf("empty -tier-policy = %v, want auto", pcfg.Policy)
	}
	if pcfg.StaleTTL >= 0 {
		t.Errorf("-stale-ttl 0 should disable the stale tier, got %v", pcfg.StaleTTL)
	}

	o = testOptions()
	o.tierPolicy = "bogus"
	if _, err := o.planConfig(); err == nil {
		t.Error("unknown -tier-policy accepted")
	}
}

// TestBuildAppRejectsBadTierPolicy: a bogus -tier-policy fails fast,
// before dataset generation.
func TestBuildAppRejectsBadTierPolicy(t *testing.T) {
	o := testOptions()
	o.tierPolicy = "degrade-maybe"
	if _, err := buildApp(o); err == nil {
		t.Fatal("buildApp accepted unknown -tier-policy value")
	}
}

// drainServer starts a real http.Server around handler and returns its
// base URL plus the server, for the shutdown-bounding tests.
func drainServer(t *testing.T, handler http.Handler) (string, *http.Server) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: handler}
	go func() { _ = hs.Serve(ln) }()
	return "http://" + ln.Addr().String(), hs
}

// TestDrainAndStopFinishesInflight: a request doing slow-but-finite work
// completes with 200 during the drain and drainAndStop reports a clean
// shutdown.
func TestDrainAndStopFinishesInflight(t *testing.T) {
	started := make(chan struct{})
	url, hs := drainServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(started)
		time.Sleep(150 * time.Millisecond)
		w.WriteHeader(http.StatusOK)
	}))

	got := make(chan int, 1)
	go func() {
		resp, err := http.Get(url)
		if err != nil {
			got <- -1
			return
		}
		resp.Body.Close()
		got <- resp.StatusCode
	}()
	<-started
	if err := drainAndStop(hs, 2*time.Second); err != nil {
		t.Errorf("drainAndStop with finite in-flight work = %v, want nil", err)
	}
	if code := <-got; code != http.StatusOK {
		t.Errorf("in-flight request during drain = %d, want 200", code)
	}
}

// TestDrainAndStopCutsStragglers: a handler stuck forever (ignoring
// every cancellation signal) must not hang shutdown — drainAndStop
// returns the deadline error after the timeout and force-closes the
// connection, so the client sees a failed request, not a hang.
func TestDrainAndStopCutsStragglers(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	url, hs := drainServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-release // stuck: ignores r.Context() and the drain entirely
	}))

	clientErr := make(chan error, 1)
	go func() {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
		}
		clientErr <- err
	}()
	<-started
	start := time.Now()
	if err := drainAndStop(hs, 100*time.Millisecond); err == nil {
		t.Error("drainAndStop with a stuck handler = nil, want deadline error")
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Errorf("drainAndStop took %v, want ~100ms (stuck handler must not extend the drain)", waited)
	}
	select {
	case err := <-clientErr:
		if err == nil {
			t.Error("straggler client got a response, want a cut connection")
		}
	case <-time.After(5 * time.Second):
		t.Error("straggler client still hanging after force-close")
	}
}

func TestBuildAppErrors(t *testing.T) {
	bad := func(mut func(*options)) options {
		o := testOptions()
		mut(&o)
		return o
	}
	if _, err := buildApp(bad(func(o *options) { o.preset = "nope" })); err == nil {
		t.Error("unknown preset accepted")
	}
	if _, err := buildApp(bad(func(o *options) { o.preset = ""; o.graphIn = "only-graph.tsv" })); err == nil {
		t.Error("graph without topics accepted")
	}
	if _, err := buildApp(bad(func(o *options) { o.preset = ""; o.graphIn = "missing.tsv"; o.topicsIn = "missing2.tsv" })); err == nil {
		t.Error("missing files accepted")
	}
}
