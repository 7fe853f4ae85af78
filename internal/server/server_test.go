package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
)

var testServer = sync.OnceValues(func() (*Server, error) {
	eng, err := smallEngine()
	if err != nil {
		return nil, err
	}
	return New(eng, Config{MaxK: 50})
})

// smallEngine builds the package's small test engine: 500 users, four
// tags of five topics, indexes built.
func smallEngine() (*core.Engine, error) {
	g, err := dataset.GenerateGraph(dataset.GraphConfig{
		Nodes: 500, MinOutDegree: 2, MaxOutDegree: 8, Seed: 31,
	})
	if err != nil {
		return nil, err
	}
	space, err := dataset.GenerateTopics(g, dataset.TopicConfig{
		Tags: 4, TopicsPerTag: 5, MeanTopicNodes: 20, Seed: 31,
	})
	if err != nil {
		return nil, err
	}
	eng, err := core.New(g, space, core.Options{WalkL: 4, WalkR: 8, Seed: 31})
	if err != nil {
		return nil, err
	}
	if err := eng.BuildIndexes(context.Background()); err != nil {
		return nil, err
	}
	return eng, nil
}

func get(t *testing.T, path string) *httptest.ResponseRecorder {
	t.Helper()
	srv, err := testServer()
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	return rec
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Error("nil engine accepted")
	}
	// An unbuilt engine is accepted but the server starts not-ready: the
	// API answers 503 until MarkReady, so index building can happen after
	// the listener is up.
	g, _ := dataset.GenerateGraph(dataset.GraphConfig{Nodes: 10, MinOutDegree: 1, MaxOutDegree: 2, Seed: 1})
	space, _ := dataset.GenerateTopics(g, dataset.TopicConfig{Tags: 1, TopicsPerTag: 1, MeanTopicNodes: 3, Seed: 1})
	eng, _ := core.New(g, space, core.Options{})
	srv, err := New(eng, Config{})
	if err != nil {
		t.Fatalf("unbuilt engine rejected: %v", err)
	}
	if srv.Ready() {
		t.Error("server over unbuilt engine reports ready")
	}
	req := httptest.NewRequest(http.MethodGet, "/search?q=x&user=1", nil)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("not-ready /search = %d, want 503", rec.Code)
	}
	if rec := probe(t, srv, "/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("not-ready /readyz = %d, want 503", rec.Code)
	}
	if rec := probe(t, srv, "/healthz"); rec.Code != http.StatusOK {
		t.Errorf("not-ready /healthz = %d, want 200", rec.Code)
	}
	srv.MarkReady()
	if rec := probe(t, srv, "/readyz"); rec.Code != http.StatusOK {
		t.Errorf("ready /readyz = %d, want 200", rec.Code)
	}
}

// probe issues a GET against a specific server instance.
func probe(t *testing.T, srv *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	return rec
}

func TestHealthz(t *testing.T) {
	rec := get(t, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d", rec.Code)
	}
}

func TestSearchOK(t *testing.T) {
	rec := get(t, "/search?q=tag000&user=5&k=3")
	if rec.Code != http.StatusOK {
		t.Fatalf("search = %d: %s", rec.Code, rec.Body)
	}
	var resp SearchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Query != "tag000" || resp.User != 5 || resp.K != 3 {
		t.Errorf("echo fields wrong: %+v", resp)
	}
	if resp.Method != "LRW-A" {
		t.Errorf("default method = %q", resp.Method)
	}
	if gen := rec.Header().Get(generationHeader); gen != "0" {
		t.Errorf("%s = %q on a static engine, want 0", generationHeader, gen)
	}
	if len(resp.Results) == 0 || len(resp.Results) > 3 {
		t.Errorf("results = %d", len(resp.Results))
	}
	for i, r := range resp.Results {
		if r.Rank != i+1 {
			t.Errorf("rank %d = %d", i, r.Rank)
		}
		if r.Tag != "tag000" {
			t.Errorf("result tag = %q", r.Tag)
		}
	}
}

func TestSearchRCLMethod(t *testing.T) {
	rec := get(t, "/search?q=tag001&user=5&k=2&method=rcl")
	if rec.Code != http.StatusOK {
		t.Fatalf("search rcl = %d: %s", rec.Code, rec.Body)
	}
	var resp SearchResponse
	_ = json.Unmarshal(rec.Body.Bytes(), &resp)
	if resp.Method != "RCL-A" {
		t.Errorf("method = %q, want RCL-A", resp.Method)
	}
}

func TestSearchKCap(t *testing.T) {
	rec := get(t, "/search?q=tag000&user=5&k=500")
	var resp SearchResponse
	_ = json.Unmarshal(rec.Body.Bytes(), &resp)
	if resp.K != 50 {
		t.Errorf("k = %d, want capped at 50", resp.K)
	}
}

func TestSearchErrors(t *testing.T) {
	cases := []struct {
		path string
		code int
	}{
		{"/search?user=1", http.StatusBadRequest},               // missing q
		{"/search?q=x", http.StatusBadRequest},                  // missing user
		{"/search?q=x&user=abc", http.StatusBadRequest},         // bad user
		{"/search?q=x&user=99999", http.StatusNotFound},         // unknown user
		{"/search?q=x&user=1&k=0", http.StatusBadRequest},       // bad k
		{"/search?q=x&user=1&method=zz", http.StatusBadRequest}, // bad method
	}
	for _, tc := range cases {
		rec := get(t, tc.path)
		if rec.Code != tc.code {
			t.Errorf("%s = %d, want %d (%s)", tc.path, rec.Code, tc.code, rec.Body)
		}
		var e errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body missing: %s", tc.path, rec.Body)
		}
	}
}

func TestSearchUnknownQueryGivesEmptyResults(t *testing.T) {
	rec := get(t, "/search?q=zzzz&user=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("unknown query = %d", rec.Code)
	}
	var resp SearchResponse
	_ = json.Unmarshal(rec.Body.Bytes(), &resp)
	if len(resp.Results) != 0 {
		t.Errorf("results = %v, want empty", resp.Results)
	}
}

func TestTopics(t *testing.T) {
	rec := get(t, "/topics?q=tag002")
	if rec.Code != http.StatusOK {
		t.Fatalf("topics = %d", rec.Code)
	}
	var resp TopicsResponse
	_ = json.Unmarshal(rec.Body.Bytes(), &resp)
	if len(resp.Topics) != 5 {
		t.Errorf("topics = %d, want 5", len(resp.Topics))
	}
	if rec := get(t, "/topics"); rec.Code != http.StatusBadRequest {
		t.Errorf("missing q = %d", rec.Code)
	}
}

func TestStats(t *testing.T) {
	rec := get(t, "/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats = %d", rec.Code)
	}
	var resp StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Nodes != 500 || resp.Topics != 20 || resp.PropIndexEntries <= 0 {
		t.Errorf("stats = %+v", resp)
	}
	if resp.WalkL != 4 || resp.WalkR != 8 {
		t.Errorf("walk params = %d/%d", resp.WalkL, resp.WalkR)
	}
	var raw map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	if gen, ok := raw["generation"]; !ok || gen != 0.0 {
		t.Errorf("generation = %v (present %v) on a static engine, want 0", gen, ok)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	srv, err := testServer()
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/search?q=x&user=1", nil)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /search = %d, want 405", rec.Code)
	}
}

func TestConcurrentRequests(t *testing.T) {
	srv, err := testServer()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := httptest.NewRequest(http.MethodGet, "/search?q=tag000&user=7&k=3", nil)
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Errorf("concurrent request %d = %d", i, rec.Code)
			}
		}(i)
	}
	wg.Wait()
}

func TestSearchWithLambda(t *testing.T) {
	rec := get(t, "/search?q=tag000&user=5&k=3&lambda=0.8")
	if rec.Code != http.StatusOK {
		t.Fatalf("lambda search = %d: %s", rec.Code, rec.Body)
	}
	var resp SearchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) == 0 {
		t.Error("no diversified results")
	}
	for _, bad := range []string{"x", "-0.5", "1.5", "NaN"} {
		if rec := get(t, "/search?q=tag000&user=5&lambda="+bad); rec.Code != http.StatusBadRequest {
			t.Errorf("lambda=%s accepted: %d", bad, rec.Code)
		}
	}
}
