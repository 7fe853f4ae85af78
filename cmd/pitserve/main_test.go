package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/stream"
)

func testOptions() options {
	return options{
		preset: "data_2k", scale: 0.1,
		maxK:           20,
		requestTimeout: 5 * time.Second, maxInflight: 16,
		shutdownTimeout: time.Second,
		shards:          1,
		Options:         core.Options{Theta: 0.01, WalkL: 4, WalkR: 8, Seed: 1},
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
	o.WalkL, o.WalkR = 3, 4
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
	o.WalkL, o.WalkR = 3, 4
	o.warmSummaries = "all"
	a, err := buildApp(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.prepare(context.Background()); err != nil {
		t.Fatal(err)
	}
	total := a.router.Space().NumTopics()
	for _, m := range []core.Method{core.MethodLRW, core.MethodRCL} {
		if got := a.router.CachedSummaries(m); got != total {
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
// the Prometheus exposition and the pprof handlers, and is a separate
// handler from the API — the API mux must keep answering 404 for
// /metrics. Which families the exposition holds is
// TestMetricFamiliesDocumented's.
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
	if families := typeLines(t, resp.Body); len(families) == 0 {
		t.Error("/metrics exposes no metric family")
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

// typeLines returns the family names an exposition declares in its
// "# TYPE" lines, in order.
func typeLines(t *testing.T, r io.Reader) []string {
	t.Helper()
	body, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			names = append(names, strings.Fields(rest)[0])
		}
	}
	return names
}

// readmeFamilies returns the family column of README's metrics table —
// the rows under its "| Question | Family | Layer |" header — without
// label lists.
func readmeFamilies(t *testing.T) []string {
	t.Helper()
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(readme), "| Question | Family | Layer |\n|---|---|---|\n")
	if !ok {
		t.Fatal("README has no | Question | Family | Layer | table")
	}
	var names []string
	for _, row := range strings.Split(table, "\n") {
		if !strings.HasPrefix(row, "|") {
			break
		}
		cells := strings.Split(row, " | ")
		if len(cells) != 3 {
			t.Fatalf("README metrics row %q: want 3 cells", row)
		}
		name, _, _ := strings.Cut(strings.Trim(cells[1], "`"), "{")
		names = append(names, name)
	}
	return names
}

// TestMetricFamiliesDocumented: README's metrics table is the one list of
// families. A live process at -shards 2 with streaming on, after two
// searches and a flushed batch, exposes exactly the families the table
// names — a family missing from the table fails, and so does a row whose
// family is gone.
func TestMetricFamiliesDocumented(t *testing.T) {
	o := testOptions()
	o.scale = 0.05
	o.shards = 2
	o.streamBatch = 8
	o.streamMaxAge = time.Hour // only the explicit Flush below applies
	a, err := buildApp(o)
	if err != nil {
		t.Fatal(err)
	}
	defer a.closeEngine()
	ctx := context.Background()
	if err := a.prepare(ctx); err != nil {
		t.Fatal(err)
	}
	for _, user := range []int{3, 5} {
		if _, err := a.router.Run(ctx, core.Query{Text: "tag000", User: graph.NodeID(user), K: 3}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.pipe.Submit(stream.Event{From: 1, To: 2, Weight: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := a.pipe.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	ops := httptest.NewServer(a.opsHandler())
	defer ops.Close()
	resp, err := http.Get(ops.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	exposed, documented := typeLines(t, resp.Body), readmeFamilies(t)
	slices.Sort(exposed)
	slices.Sort(documented)
	for _, name := range exposed {
		if _, found := slices.BinarySearch(documented, name); !found {
			t.Errorf("%s is exposed but has no README metrics row", name)
		}
	}
	for _, name := range documented {
		if _, found := slices.BinarySearch(exposed, name); !found {
			t.Errorf("README documents %s, which the process does not expose", name)
		}
	}
	if n := len(slices.Compact(slices.Clone(documented))); n != len(documented) {
		t.Errorf("README has %d metrics rows for %d families", len(documented), n)
	}
}

// readmeFlags returns README's flag table — the rows under its
// "| Flag | Default | Sets |" header — as flag name → default cell.
func readmeFlags(t *testing.T) map[string]string {
	t.Helper()
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(readme), "| Flag | Default | Sets |\n|---|---|---|\n")
	if !ok {
		t.Fatal("README has no | Flag | Default | Sets | table")
	}
	rows := map[string]string{}
	for _, row := range strings.Split(table, "\n") {
		if !strings.HasPrefix(row, "|") {
			break
		}
		cells := strings.Split(row, " | ")
		if len(cells) != 3 {
			t.Fatalf("README flag row %q: want 3 cells", row)
		}
		name := strings.TrimPrefix(strings.Trim(strings.TrimPrefix(cells[0], "| "), "`"), "-")
		if _, dup := rows[name]; dup {
			t.Errorf("README documents -%s twice", name)
		}
		rows[name] = strings.Trim(cells[1], "`")
	}
	return rows
}

// TestFlagsDocumented: README's flag table is the one list of pitserve
// flags. Every flag registerFlags registers has a row carrying its
// default, and every row names a registered flag — a flag missing from
// the table fails, and so does a row for a flag that is gone.
func TestFlagsDocumented(t *testing.T) {
	fs := flag.NewFlagSet("pitserve", flag.ContinueOnError)
	registerFlags(fs, &options{})
	documented := readmeFlags(t)
	fs.VisitAll(func(f *flag.Flag) {
		def, ok := documented[f.Name]
		switch {
		case !ok:
			t.Errorf("-%s is registered but has no README flag row", f.Name)
		case def != f.DefValue && !(f.DefValue == "" && def == `""`):
			t.Errorf("README gives -%s the default %q, the flag's is %q", f.Name, def, f.DefValue)
		}
	})
	for name := range documented {
		if fs.Lookup(name) == nil {
			t.Errorf("README documents -%s, which pitserve does not register", name)
		}
	}
}

// TestPrepareColdStartsFromArtifacts: the first prepare builds, warms
// and saves artifacts; a second app pointed at the same directory — at
// another -shards — loads them instead of rebuilding and serves
// identical search results.
func TestPrepareColdStartsFromArtifacts(t *testing.T) {
	dir := t.TempDir()
	o := testOptions()
	o.scale = 0.05
	o.WalkL, o.WalkR = 3, 4
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
	first.closeEngine()

	o.shards = 2
	second, err := buildApp(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := second.prepare(context.Background()); err != nil {
		t.Fatalf("cold start from artifacts: %v", err)
	}
	defer second.closeEngine()
	if n := metricSum(t, second, "pit_summary_builds_total"); n != 0 {
		t.Errorf("cold start built %v summaries, want the saved corpus reused", n)
	}
	if got := search(second); got != want {
		t.Errorf("cold-started answer differs:\n got %s\nwant %s", got, want)
	}
}

// TestPrepareRefusesNonV2Artifacts: an artifact directory holding
// anything but v2 files — here what the retired gob v1 format left
// behind — fails prepare with storage's error (expected format, rebuild
// command) instead of serving or silently rebuilding, at one shard and
// at two alike.
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
	o.WalkL, o.WalkR = 3, 4

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
	t.Run("sharded-root", func(t *testing.T) {
		o := o
		o.shards = 2
		o.indexDir = t.TempDir()
		first, err := buildApp(o)
		if err != nil {
			t.Fatal(err)
		}
		err = first.prepare(context.Background())
		first.closeEngine()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(o.indexDir, core.WalkArtifact), legacy, 0o644); err != nil {
			t.Fatal(err)
		}
		refused(t, o)
	})
}

// TestShardedStreamingServesGrownUser: under -shards 2 with streaming, a
// user added through POST /updates is searchable once the batch has
// swapped in — the router validates against the graph its shards serve
// now, not the boot snapshot.
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
	for a.pipe.Swaps() == 0 { // moves once every shard serves the batch
		if time.Now().After(deadline) {
			t.Fatal("the batch was never swapped in")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code := search(); code != http.StatusOK {
		t.Fatalf("/search as the grown user after the swap = %d, want 200", code)
	}
}

// metricSum adds up every sample of the app's registry whose exposition
// line starts with prefix (a family name, optionally with its labels).
func metricSum(t *testing.T, a *app, prefix string) float64 {
	t.Helper()
	var buf strings.Builder
	if err := a.reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("metric line %q: %v", line, err)
		}
		sum += v
	}
	return sum
}

// TestWarmMetricsAtAnyShardCount: the corpus warm-up behind
// -warm-summaries is one instrumented pool at every partition width —
// pit_warm_topics_total counts each topic once and every shard's run
// lands in pit_warm_duration_seconds.
func TestWarmMetricsAtAnyShardCount(t *testing.T) {
	for _, n := range []int{1, 3} {
		o := testOptions()
		o.scale = 0.05
		o.WalkL, o.WalkR = 3, 4
		o.warmSummaries = "lrw"
		o.shards = n
		a, err := buildApp(o)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.prepare(context.Background()); err != nil {
			t.Fatal(err)
		}
		want := float64(a.router.Space().NumTopics())
		if got := metricSum(t, a, `pit_warm_topics_total{method="lrw"}`); got != want {
			t.Errorf("shards=%d: pit_warm_topics_total{lrw} = %v, want %v (every topic, once)", n, got, want)
		}
		if got := metricSum(t, a, "pit_warm_duration_seconds_count"); got != float64(n) {
			t.Errorf("shards=%d: %v warm durations observed, want one per shard", n, got)
		}
		a.closeEngine()
	}
}

// TestTopologyIdenticalAcrossShardCounts pins that -shards is a width,
// not a mode: one shard and three serve byte-identical /search bodies
// for a fixed panel (both methods, plain and diversified) before and
// after an applied update batch, the same /stats apart from "shards",
// and the same metric families.
func TestTopologyIdenticalAcrossShardCounts(t *testing.T) {
	type observed struct {
		before, after []string
		stats         map[string]any
		families      []string
	}
	observe := func(n int) observed {
		o := testOptions()
		o.shards = n
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
		get := func(path string) string {
			t.Helper()
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("shards=%d GET %s = %d: %s", n, path, resp.StatusCode, body)
			}
			return string(body)
		}
		panel := func() []string {
			var bodies []string
			for _, method := range []string{"lrw", "rcl"} {
				for _, lambda := range []string{"0", "0.5"} {
					for _, q := range []string{"tag000&user=3", "tag002&user=41"} {
						bodies = append(bodies, get(fmt.Sprintf("/search?q=%s&k=5&method=%s&lambda=%s", q, method, lambda)))
					}
				}
			}
			return bodies
		}
		var ob observed
		ob.before = panel()
		resp, err := http.Post(ts.URL+"/updates", "application/json",
			strings.NewReader(`{"updates":[{"from":3,"to":41,"weight":0.9},{"from":41,"to":7,"weight":0.8}]}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("shards=%d /updates = %d, want 202", n, resp.StatusCode)
		}
		deadline := time.Now().Add(10 * time.Second)
		for a.pipe.Swaps() == 0 { // moves once every shard serves the batch
			if time.Now().After(deadline) {
				t.Fatalf("shards=%d: the batch was never swapped in", n)
			}
			time.Sleep(5 * time.Millisecond)
		}
		ob.after = panel()
		if err := json.Unmarshal([]byte(get("/stats")), &ob.stats); err != nil {
			t.Fatal(err)
		}
		var buf strings.Builder
		if err := a.reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(buf.String(), "\n") {
			if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
				ob.families = append(ob.families, name)
			}
		}
		return ob
	}

	one, three := observe(1), observe(3)
	if !slices.Equal(one.before, three.before) {
		t.Errorf("/search panel differs before the batch:\n 1 shard: %v\n3 shards: %v", one.before, three.before)
	}
	if !slices.Equal(one.after, three.after) {
		t.Errorf("/search panel differs after the batch:\n 1 shard: %v\n3 shards: %v", one.after, three.after)
	}
	if slices.Equal(one.before, one.after) {
		t.Error("the update batch changed no panel answer: the after-half compares nothing new")
	}
	if one.stats["shards"] != 1.0 || three.stats["shards"] != 3.0 {
		t.Errorf(`/stats "shards" = %v and %v, want 1 and 3`, one.stats["shards"], three.stats["shards"])
	}
	delete(one.stats, "shards")
	delete(three.stats, "shards")
	if !reflect.DeepEqual(one.stats, three.stats) {
		t.Errorf("/stats differs beyond shards:\n 1 shard: %v\n3 shards: %v", one.stats, three.stats)
	}
	if !slices.Equal(one.families, three.families) {
		t.Errorf("metric families differ:\n 1 shard: %v\n3 shards: %v", one.families, three.families)
	}
}

// dirListing is every file under root with its size and mtime — enough
// to tell whether anything was written.
func dirListing(t *testing.T, root string) []string {
	t.Helper()
	var out []string
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		out = append(out, fmt.Sprintf("%s %d %v", path, info.Size(), info.ModTime()))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// artifactDigests lists the files in dir, sorted, with each one's
// SHA-256.
func artifactDigests(t *testing.T, dir string) ([]string, map[string][sha256.Size]byte) {
	t.Helper()
	entries, err := os.ReadDir(dir) // sorted by name
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	sums := map[string][sha256.Size]byte{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, e.Name())
		sums[e.Name()] = sha256.Sum256(data)
	}
	return names, sums
}

// startAt builds o at -shards n over -index-dir dir and prepares it,
// returning prepare's error; the app is closed with the test.
func startAt(t *testing.T, o options, n int, dir string) (*app, error) {
	t.Helper()
	o.shards, o.indexDir = n, dir
	a, err := buildApp(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.closeEngine)
	return a, a.prepare(context.Background())
}

// TestIndexDirLayouts drives the one artifact layout through the one
// -index-dir flag: a fresh build saves the same flat files at any
// -shards, a populated directory cold-starts any -shards whatever width
// wrote it (no summary build), and a directory in the retired per-shard
// layout fails prepare loudly without rebuilding over it.
func TestIndexDirLayouts(t *testing.T) {
	base := testOptions()
	base.scale = 0.05
	base.WalkL, base.WalkR = 3, 4
	base.warmSummaries = "lrw"
	start := func(n int, dir string) (*app, error) { return startAt(t, base, n, dir) }
	// A cold start from artifacts installs indexes (counted like a build)
	// but summarizes nothing: the warmed corpus arrives with them.
	indexed := func(a *app) bool { return metricSum(t, a, "pit_index_build_duration_seconds_count") > 0 }
	built := func(a *app) bool { return metricSum(t, a, "pit_summary_builds_total") > 0 }
	want := []string{core.PropArtifact, core.SummaryArtifact(core.MethodLRW), core.WalkArtifact}

	byOne, byThree := t.TempDir(), t.TempDir()
	for _, tc := range []struct {
		shards int
		dir    string
	}{{1, byOne}, {3, byThree}} {
		a, err := start(tc.shards, tc.dir)
		if err != nil {
			t.Fatal(err)
		}
		names, _ := artifactDigests(t, tc.dir)
		if !built(a) || !slices.Equal(names, want) {
			t.Fatalf("fresh %d-shard start: built=%v, saved %v; want a build saved as %v", tc.shards, built(a), names, want)
		}
	}

	for _, tc := range []struct {
		name   string
		shards int
		dir    string
	}{
		{"1-shard save into 1 shard", 1, byOne},
		{"3-shard save into 3 shards", 3, byThree},
		{"1-shard save into 3 shards", 3, byOne},
		{"3-shard save into 2 shards", 2, byThree},
	} {
		before := dirListing(t, tc.dir)
		a, err := start(tc.shards, tc.dir)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if built(a) {
			t.Errorf("%s: summaries were rebuilt, want a cold start from the artifacts", tc.name)
		}
		total := a.router.Space().NumTopics()
		if got := a.router.CachedSummaries(core.MethodLRW); got != total {
			t.Errorf("%s: %d of %d warmed summaries arrived", tc.name, got, total)
		}
		if after := dirListing(t, tc.dir); !slices.Equal(before, after) {
			t.Errorf("%s: a cold start rewrote the directory:\nbefore %v\nafter  %v", tc.name, before, after)
		}
	}

	// What `datagen -shards 2 -index-dir` used to leave behind.
	retired := t.TempDir()
	if err := os.WriteFile(filepath.Join(retired, "shard-manifest.json"), []byte(`{"version":1,"shards":2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(retired, "shard-0"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(retired, "shard-0", core.WalkArtifact), []byte("a shard's index copy"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirListing(t, retired)
	for _, n := range []int{1, 2} {
		a, err := start(n, retired)
		if err == nil {
			t.Fatalf("retired layout at -shards %d: prepare succeeded", n)
		}
		for _, want := range []string{"shard-manifest.json", "retired", "datagen -index-dir", "delete the directory"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("retired layout at -shards %d: error %q does not say %q", n, err, want)
			}
		}
		if a.srv.Ready() || indexed(a) {
			t.Errorf("retired layout at -shards %d: ready=%v indexed=%v after a refused load", n, a.srv.Ready(), indexed(a))
		}
		if after := dirListing(t, retired); !slices.Equal(before, after) {
			t.Errorf("retired layout at -shards %d: the refused directory changed:\nbefore %v\nafter  %v", n, before, after)
		}
	}
}

// TestArtifactDirIndependentOfShardCount: an artifact directory belongs
// to the dataset. Saved by a 1-shard set, a 3-shard set and the one
// whole-corpus engine of datagen, it is the same four files byte for
// byte; and that directory cold-starts any -shards with every shard
// holding exactly its owned summaries, nothing summarized, and answers
// identical across widths and to a freshly built server.
func TestArtifactDirIndependentOfShardCount(t *testing.T) {
	base := testOptions()
	base.scale = 0.05
	base.WalkL, base.WalkR = 3, 4
	base.warmSummaries = "all"
	ctx := context.Background()
	start := func(n int, dir string) *app {
		a, err := startAt(t, base, n, dir)
		if err != nil {
			t.Fatalf("-shards %d -index-dir %s: %v", n, dir, err)
		}
		return a
	}
	panel := func(a *app) []string {
		ts := httptest.NewServer(a.srv.Handler())
		defer ts.Close()
		var out []string
		for _, method := range []string{"lrw", "rcl"} {
			for _, lambda := range []string{"0", "0.5"} {
				for q := 0; q < 3; q++ {
					url := fmt.Sprintf("%s/search?q=tag%03d&user=%d&k=5&method=%s&lambda=%s", ts.URL, q, 3+q, method, lambda)
					resp, err := http.Get(url)
					if err != nil {
						t.Fatal(err)
					}
					body, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusOK {
						t.Fatalf("GET %s = %d, %v", url, resp.StatusCode, err)
					}
					out = append(out, string(body))
				}
			}
		}
		return out
	}

	byOne, byThree, byDatagen := t.TempDir(), t.TempDir(), t.TempDir()
	fresh := start(1, byOne)
	wantPanel := panel(fresh)
	start(3, byThree)
	// datagen's path: one engine over the same dataset and options holds
	// the whole warmed corpus and writes it.
	whole, err := core.New(fresh.router.Graph(), fresh.router.Space(), base.Options)
	if err != nil {
		t.Fatal(err)
	}
	defer whole.Close()
	if err := whole.BuildIndexes(ctx); err != nil {
		t.Fatal(err)
	}
	for _, m := range []core.Method{core.MethodLRW, core.MethodRCL} {
		if err := whole.WarmSummaries(ctx, m, core.WarmOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := core.WriteArtifacts(byDatagen, whole); err != nil {
		t.Fatal(err)
	}
	names, want := artifactDigests(t, byOne)
	artifactNames := []string{core.PropArtifact, core.SummaryArtifact(core.MethodLRW), core.SummaryArtifact(core.MethodRCL), core.WalkArtifact}
	if !slices.Equal(names, artifactNames) {
		t.Fatalf("a 1-shard save wrote %v, want exactly %v", names, artifactNames)
	}
	for name, dir := range map[string]string{"3-shard set": byThree, "datagen": byDatagen} {
		if _, got := artifactDigests(t, dir); !reflect.DeepEqual(got, want) {
			t.Errorf("the %s's directory differs from the 1-shard set's:\n got %x\nwant %x", name, got, want)
		}
	}

	for _, n := range []int{1, 2, 3} {
		a := start(n, byThree)
		if builds := metricSum(t, a, "pit_summary_builds_total"); builds != 0 {
			t.Errorf("-shards %d: the warm sweep built %v summaries, want all of them loaded", n, builds)
		}
		for i := range n {
			eng := a.router.Engine(i)
			for _, m := range []core.Method{core.MethodLRW, core.MethodRCL} {
				if got, owned := eng.CachedSummaries(m), len(a.part.Owned(i)); got != owned {
					t.Errorf("-shards %d: shard %d holds %d %v summaries, owns %d topics", n, i, got, m, owned)
				}
			}
		}
		if got := panel(a); !slices.Equal(got, wantPanel) {
			t.Errorf("-shards %d from artifacts answers differently from the fresh build:\n got %v\nwant %v", n, got, wantPanel)
		}
	}
}

// TestBuildAppRejectsZeroShards: there is no un-sharded mode to select —
// a width below one is a flag error, before dataset generation.
func TestBuildAppRejectsZeroShards(t *testing.T) {
	o := testOptions()
	o.shards = 0
	if _, err := buildApp(o); err == nil || !strings.Contains(err.Error(), "-shards") {
		t.Fatalf("buildApp with -shards 0 = %v, want an error naming the flag", err)
	}
}

// TestBuildAppRefusesOutOfRangeEngineFlags: -theta outside (0, 1) and a
// -L or -R below one are flag errors naming the flag, before dataset
// generation — not a silent fallback to the defaults.
func TestBuildAppRefusesOutOfRangeEngineFlags(t *testing.T) {
	for _, args := range [][]string{{"-theta", "1.5"}, {"-theta", "0"}, {"-L", "-1"}, {"-R", "0"}} {
		var o options
		fs := flag.NewFlagSet("pitserve", flag.ContinueOnError)
		registerFlags(fs, &o)
		if err := fs.Parse(append([]string{"-scale", "0.05"}, args...)); err != nil {
			t.Fatal(err)
		}
		a, err := buildApp(o)
		if err == nil {
			a.closeEngine()
		}
		if err == nil || !strings.Contains(err.Error(), args[0]+":") {
			t.Errorf("buildApp with %v = %v, want an error naming %s", args, err, args[0])
		}
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
