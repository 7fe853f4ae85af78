package server

// End-to-end streaming surface tests: POST /updates feeding the update
// pipeline, POST /subscribe serving SSE pushes, and the swap protocol
// underneath both — the pitserve wiring at one shard: a router over
// Pipeline.Current is the server's backend. The two-edge graph makes the
// push semantics exact: a re-weighting flips which topic the standing
// query ranks first, so the subscriber must see exactly one change push
// with the flipped order.

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/subscribe"
	"repro/internal/topics"
)

// streamHarness serves a 3-node graph where node 1 influences user 0
// strongly (0.9) and node 2 weakly (0.1); topic "alpha" lives on node 1,
// topic "beta" on node 2, both answering query "t". A standing query for
// user 0 therefore ranks alpha first until the weights flip.
// The pipeline flushes on its own at two events or 20 ms.
func streamHarness(t *testing.T, cfg Config) (*httptest.Server, *stream.Pipeline) {
	t.Helper()
	return streamHarnessOver(t, cfg, eagerBatching, sameGeneration)
}

// eagerBatching is streamHarness's batching: two events or 20 ms,
// whichever first.
var eagerBatching = stream.Config{BatchSize: 2, MaxAge: 20 * time.Millisecond}

// sameGeneration is the identity wrap: the router reads the pipeline's
// generation source as it is.
func sameGeneration(current func() *core.Generation) func() *core.Generation { return current }

// streamHarnessOver is streamHarness with the pipeline's BatchSize and
// MaxAge taken from batching and the router's generation source wrapped
// by wrap — the seams for a pipeline that flushes only when told to and
// for a source that lags behind a swap.
func streamHarnessOver(t *testing.T, cfg Config, batching stream.Config, wrap func(func() *core.Generation) func() *core.Generation) (*httptest.Server, *stream.Pipeline) {
	t.Helper()
	b := graph.NewBuilder(3)
	b.MustAddEdge(1, 0, 0.9)
	b.MustAddEdge(2, 0, 0.1)
	g := b.Build()
	sb := topics.NewSpaceBuilder()
	alpha, err := sb.AddTopic("t", "alpha")
	if err != nil {
		t.Fatal(err)
	}
	beta, err := sb.AddTopic("t", "beta")
	if err != nil {
		t.Fatal(err)
	}
	if err := sb.AddNode(alpha, 1); err != nil {
		t.Fatal(err)
	}
	if err := sb.AddNode(beta, 2); err != nil {
		t.Fatal(err)
	}
	space := sb.Build()
	engines, err := shard.BuildEngines(context.Background(), g, space, core.Options{WalkL: 2, WalkR: 64, Seed: 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	part, err := shard.NewPartitioner(space, 1)
	if err != nil {
		t.Fatal(err)
	}
	subs := subscribe.NewRegistry(nil)
	var router *shard.Router
	set, err := stream.NewSet(engines, stream.Config{
		BatchSize: batching.BatchSize,
		MaxAge:    batching.MaxAge,
		OnApply: func(ctx context.Context, r stream.ApplyResult) {
			subs.Dispatch(ctx, router, r.Stats.Affected, r.Seq)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	router, err = shard.New(part, wrap(set.Current), shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Stream = set
	cfg.Subscriptions = subs
	if cfg.Logger == nil {
		cfg.Logger = testLogger(t)
	}
	srv, err := New(router, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.MarkReady()
	set.Start()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		set.Stop()
		router.Close()
	})
	return ts, set
}

// readSSE reads one SSE event (through the next blank line), returning
// the event name and the data payload.
func readSSE(t *testing.T, br *bufio.Reader) (event, data string) {
	t.Helper()
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("read SSE stream: %v", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "" && (event != "" || data != ""):
			return event, data
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		}
		// Comment lines (heartbeats) and blank keep-alives fall through.
	}
}

func TestSubscribePushesOnRankingFlip(t *testing.T) {
	ts, _ := streamHarness(t, Config{})

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/subscribe?q=t&user=0&k=2", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /subscribe = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	br := bufio.NewReader(resp.Body)

	event, data := readSSE(t, br)
	if event != "topk" {
		t.Fatalf("initial event = %q, want topk", event)
	}
	var initial SubscribePush
	if err := json.Unmarshal([]byte(data), &initial); err != nil {
		t.Fatalf("decode initial push %q: %v", data, err)
	}
	if initial.Seq != 0 {
		t.Errorf("initial push seq = %d, want 0", initial.Seq)
	}
	if len(initial.Results) != 2 || initial.Results[0].Topic != "alpha" {
		t.Fatalf("initial ranking = %+v, want alpha first of 2", initial.Results)
	}

	// Flip the weights: the strong edge collapses, the weak one surges.
	// Two events hit BatchSize, so the background loop applies at once.
	body := `{"updates":[{"from":1,"to":0,"weight":0.05},{"from":2,"to":0,"weight":0.95}]}`
	up, err := http.Post(ts.URL+"/updates", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	up.Body.Close()
	if up.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /updates = %d, want 202", up.StatusCode)
	}

	event, data = readSSE(t, br)
	if event != "topk" {
		t.Fatalf("change event = %q, want topk", event)
	}
	var changed SubscribePush
	if err := json.Unmarshal([]byte(data), &changed); err != nil {
		t.Fatalf("decode change push %q: %v", data, err)
	}
	if changed.Seq == 0 {
		t.Error("change push carries seq 0, want the triggering batch seq")
	}
	if len(changed.Results) != 2 || changed.Results[0].Topic != "beta" {
		t.Fatalf("post-flip ranking = %+v, want beta first of 2", changed.Results)
	}
}

// /search and /stats report the generation they read: 0 at boot, 1 once
// the first batch serves. The /updates ack's swaps is the same counter.
// The pipeline never flushes on its own here — two events stay below its
// batch size and its max age is an hour — so the ack is read before any
// batch can publish, and the batch applies only at the explicit Flush.
func TestResponsesReportGeneration(t *testing.T) {
	ts, set := streamHarnessOver(t, Config{}, stream.Config{BatchSize: 1 << 20, MaxAge: time.Hour}, sameGeneration)
	generations := func() (search string, stats uint64) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/search?q=t&user=0&k=2")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /search = %d, want 200", resp.StatusCode)
		}
		search = resp.Header.Get(generationHeader)
		resp, err = http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st StatsResponse
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return search, st.Generation
	}
	if search, stats := generations(); search != "0" || stats != 0 {
		t.Fatalf("at boot: /search generation %q, /stats %d; want 0, 0", search, stats)
	}

	body := `{"updates":[{"from":1,"to":0,"weight":0.05},{"from":2,"to":0,"weight":0.95}]}`
	up, err := http.Post(ts.URL+"/updates", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ack UpdateResponse
	err = json.NewDecoder(up.Body).Decode(&ack)
	up.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ack.Swaps != 0 {
		t.Errorf("ack swaps = %d before any batch applied, want 0", ack.Swaps)
	}
	if err := set.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := set.Swaps(); got != 1 {
		t.Fatalf("swaps after one flush = %d, want 1", got)
	}
	if search, stats := generations(); search != "1" || stats != 1 {
		t.Fatalf("after one batch: /search generation %q, /stats %d; want 1, 1", search, stats)
	}
}

func TestUpdatesValidation(t *testing.T) {
	ts, _ := streamHarness(t, Config{})
	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/updates", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	cases := []struct {
		name string
		body string
	}{
		{"garbage", `{`},
		{"unknown field", `{"updates":[],"nope":1}`},
		{"negative new_nodes", `{"new_nodes":-1}`},
		{"empty", `{"updates":[]}`},
		{"out-of-range node", `{"updates":[{"from":0,"to":99,"weight":0.5}]}`},
		{"self loop", `{"updates":[{"from":1,"to":1,"weight":0.5}]}`},
		{"bad weight", `{"updates":[{"from":0,"to":1,"weight":1.5}]}`},
	}
	for _, c := range cases {
		if code := post(c.body); code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", c.name, code)
		}
	}
	// Growing nodes makes previously out-of-range IDs valid in the same
	// request.
	resp, err := http.Post(ts.URL+"/updates", "application/json",
		strings.NewReader(`{"new_nodes":1,"updates":[{"from":3,"to":0,"weight":0.5}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("grow+update = %d, want 202", resp.StatusCode)
	}
	var ack UpdateResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	if ack.Accepted != 1 || ack.NewNodes != 1 {
		t.Errorf("ack = %+v, want 1 accepted, 1 new node", ack)
	}
}

// A body is one update object and nothing after it but whitespace, and its
// new_nodes may at most double the published graph (three nodes here): the
// rest is a 400 that queues nothing.
func TestUpdatesRefusesTrailingDataAndRunawayGrowth(t *testing.T) {
	ts, pipe := streamHarnessOver(t, Config{}, stream.Config{BatchSize: 1 << 20, MaxAge: time.Hour}, sameGeneration)
	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/updates", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	for _, body := range []string{
		`{"updates":[{"from":1,"to":2,"weight":0.5}]} trailing garbage`,
		`{"updates":[{"from":1,"to":2,"weight":0.5}]}{"updates":[]}`,
		`{"updates":[{"from":1,"to":2,"weight":0.5}]} 7`,
		`{"new_nodes":1000000000}`,
		`{"new_nodes":4}`,
		`{"new_nodes":9223372036854775807,"updates":[{"from":2147483647,"to":0,"weight":1}]}`,
	} {
		if code := post(body); code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", body, code)
		}
	}
	if n := pipe.PendingEvents(); n != 0 {
		t.Fatalf("%d events pending after refused bodies, want 0", n)
	}
	if code := post("{\"new_nodes\":3,\"updates\":[{\"from\":5,\"to\":0,\"weight\":0.5}]} \n"); code != http.StatusAccepted {
		t.Fatalf("growth to double the graph, trailing whitespace: status = %d, want 202", code)
	}
	if code := post(`{"new_nodes":1}`); code != http.StatusBadRequest {
		t.Fatalf("growth past double the graph: status = %d, want 400", code)
	}
}

// A server without a pipeline keeps its exact pre-streaming surface:
// the streaming routes do not exist.
func TestStreamingRoutesAbsentWithoutPipeline(t *testing.T) {
	srv, err := testServer()
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/updates", "/subscribe"} {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader("{}"))
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusNotFound {
			t.Errorf("POST %s on static server = %d, want 404", path, rec.Code)
		}
	}
}

func TestSubscribeCapSheds(t *testing.T) {
	ts, _ := streamHarness(t, Config{MaxSubscribers: 1})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/subscribe?q=t&user=0&k=2", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first subscriber = %d, want 200", resp.StatusCode)
	}
	// Consume the initial push so the stream is established.
	readSSE(t, bufio.NewReader(resp.Body))

	second, err := http.Post(ts.URL+"/subscribe?q=t&user=0&k=2", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Body.Close()
	if second.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second subscriber = %d, want 429", second.StatusCode)
	}
	if second.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

func TestSubscribeValidationErrors(t *testing.T) {
	ts, _ := streamHarness(t, Config{})
	cases := []struct {
		name string
		path string
		want int
	}{
		{"unknown user", "/subscribe?q=t&user=99&k=2", http.StatusBadRequest},
		{"unrelated query", "/subscribe?q=nosuchtag&user=0&k=2", http.StatusBadRequest},
		{"bad k", "/subscribe?q=t&user=0&k=0", http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+c.path, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status = %d, want %d", c.name, resp.StatusCode, c.want)
		}
	}
}

// TestRetiredEngineIsFollowed: a request whose engine retires under it —
// the source handed out the old generation just before the swap
// published the new one — is answered by the replacement, on every
// route. The lagging source returns the retired generation on exactly
// one load, the k-th after arming; whichever load that is (a graph read,
// which a retired generation still serves, or the one the request holds,
// which refuses), the request must succeed. /subscribe is the route that
// used to answer 503 here: its handler resolved an engine once and never
// looked again.
func TestRetiredEngineIsFollowed(t *testing.T) {
	var (
		mu        sync.Mutex // guards the rest
		retired   *core.Generation
		countdown int // loads until the retired generation is handed out; 0 = never
		resolves  int // loads since arm
	)
	arm := func(k int) {
		mu.Lock()
		countdown, resolves = k, 0
		mu.Unlock()
	}
	ts, set := streamHarnessOver(t, Config{}, eagerBatching, func(current func() *core.Generation) func() *core.Generation {
		return func() *core.Generation {
			mu.Lock()
			defer mu.Unlock()
			resolves++
			if countdown > 0 {
				if countdown--; countdown == 0 {
					return retired
				}
			}
			return current()
		}
	})
	old := set.Current()
	if err := set.Submit(stream.Event{From: 1, To: 0, Weight: 0.5}, stream.Event{From: 2, To: 0, Weight: 0.4}); err != nil {
		t.Fatal(err)
	}
	if err := set.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if set.Current() == old {
		t.Fatal("the flush did not swap the generation")
	}
	mu.Lock()
	retired = old
	mu.Unlock()

	search := func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/search?q=t&user=0&k=2")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /search = %d, want 200", resp.StatusCode)
		}
	}
	subscribe := func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/subscribe?q=t&user=0&k=2", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /subscribe = %d, want 200", resp.StatusCode)
		}
		if event, _ := readSSE(t, bufio.NewReader(resp.Body)); event != "topk" {
			t.Fatalf("initial event = %q, want topk", event)
		}
	}
	for name, request := range map[string]func(*testing.T){"search": search, "subscribe": subscribe} {
		t.Run(name, func(t *testing.T) {
			arm(0)
			request(t)
			mu.Lock()
			baseline := resolves
			mu.Unlock()
			retried := false
			for k := 1; k <= baseline; k++ {
				arm(k)
				request(t)
				mu.Lock()
				// A refused hold re-loads: one load more than usual.
				retried = retried || resolves > baseline
				mu.Unlock()
			}
			if !retried {
				t.Fatalf("no position of the retired generation among %d loads forced a retry: the swap race was never exercised", baseline)
			}
		})
	}
}
