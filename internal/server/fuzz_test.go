package server

// Fuzzers for the two request decoders: /search's query string
// (parseQuery, shared with /subscribe) and /updates' JSON body. Both
// drive the whole Handler() stack over the small test engine. `make
// fuzz` runs each for 10 s; `go test` replays the seed corpus.

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/stream"
)

// FuzzSearchQuery: whatever q, user, k, method and lambda say, /search
// answers no 5xx but the ladder's planned 503, a 200 carries a k in
// [1, MaxK], and a 200 never serves a lambda outside [0, 1].
func FuzzSearchQuery(f *testing.F) {
	for _, seed := range [][5]string{
		{"tag000", "5", "3", "", ""},
		{"tag001", "7", "2", "rcl", "0.5"},
		{"tag000", "5", "3", "lrw", "NaN"},
		{"tag000", "5", "3", "", "Inf"},
		{"tag000", "5", "3", "", "-Inf"},
		{"tag000", "5", "3", "", "-0"},
		{"tag000", "5", "99999999999999999999", "", ""},
		{"tag000", "5", "100000", "", "1"},
		{"tag000", "99999999999", "3", "", ""},
		{"tag000", "2147483647", "3", "", ""},
		{"tag000", "-1", "0", "zz", "0x1p-2"},
		{"no-such-tag", "1", "1", "", "1e-300"},
		{"", "", "", "", ""},
	} {
		f.Add(seed[0], seed[1], seed[2], seed[3], seed[4])
	}
	srv, err := testServer()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, q, user, k, method, lambda string) {
		v := url.Values{"q": {q}, "user": {user}, "k": {k}, "method": {method}, "lambda": {lambda}}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/search?"+v.Encode(), nil))
		switch {
		case rec.Code == http.StatusServiceUnavailable && rec.Header().Get(tierHeader) == core.TierUnavailable.String():
			// The ladder's planned "no tier can answer".
		case rec.Code >= 500:
			t.Fatalf("%s: unplanned %d: %s", v.Encode(), rec.Code, rec.Body)
		case rec.Code == http.StatusOK:
			var resp SearchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("%s: decode 200 body: %v", v.Encode(), err)
			}
			if resp.K < 1 || resp.K > srv.cfg.MaxK {
				t.Fatalf("%s: 200 with k = %d, want 1..%d", v.Encode(), resp.K, srv.cfg.MaxK)
			}
			if lambda != "" {
				l, err := strconv.ParseFloat(lambda, 64)
				if err != nil || math.IsNaN(l) || l < 0 || l > 1 {
					t.Fatalf("%s: 200 for lambda %q", v.Encode(), lambda)
				}
			}
		}
	})
}

// updatesEngine is FuzzUpdates' own copy of the small test engine: a
// pipeline enables its drain gate, which the shared one must not see.
var updatesEngine = sync.OnceValues(smallEngine)

// FuzzUpdates: whatever the /updates body holds, the answer is no 5xx,
// a 202 only when every event names two distinct nodes of the grown
// graph and carries a weight in [0, 1] (stream's validateEvent rules),
// and any other answer admits nothing: no pending event, no pending
// growth, the node range unchanged. Each input gets a fresh pipeline
// that is never started, so nothing is applied and the node count the
// events are checked against is the graph's plus the body's new_nodes.
func FuzzUpdates(f *testing.F) {
	for _, seed := range []string{
		`{"updates":[{"from":3,"to":4,"weight":0.5}]}`,
		`{"new_nodes":1,"updates":[{"from":3,"to":500,"weight":0.5}]}`,
		`{"new_nodes":2}`,
		`{"updates":[{"from":3,"to":3,"weight":0.5}]}`,
		`{"updates":[{"from":3,"to":4,"weight":1.5}]}`,
		`{"updates":[{"from":3,"to":4,"weight":-0}]}`,
		`{"updates":[{"from":-1,"to":4,"weight":0}]}`,
		`{"updates":[{"from":3,"to":4,"weight":1e999}]}`,
		`{"updates":[{"from":3,"to":4,"weight":"NaN"}]}`,
		`{"updates":[{"from":3,"to":4,"weight":0.5,"at":1}]}`,
		`{"new_nodes":1,"unknown":true}`,
		`{"new_nodes":9223372036854775807,"updates":[{"from":2147483647,"to":0,"weight":1}]}`,
		`{"new_nodes":-1}`,
		`{"updates":[{"from":3,"to":4,"weight":0.5}]} trailing`,
		`{}`, `null`, `[]`, ``,
		`{"new_nodes":1,"updates":[{"from":3,"to":3,"weight":0.5}]}`,
		`{"new_nodes":1,"updates":[{"from":3,"to":500,"weight":0.5},{"from":3,"to":501,"weight":0.5}]}`,
		`{"new_nodes":500,"updates":[{"from":3,"to":999,"weight":0.5}]}`,
		`{"new_nodes":501,"updates":[{"from":3,"to":4,"weight":0.5}]}`,
	} {
		f.Add([]byte(seed))
	}
	eng, err := updatesEngine()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		p, err := stream.NewSet([]*core.Engine{eng}, stream.Config{BatchSize: math.MaxInt32})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Stop()
		srv, err := New(eng, Config{MaxK: 50, Stream: p})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/updates", bytes.NewReader(body)))
		// The pipeline is never stopped while a request runs, so even
		// its "stopped" 503 is unplanned here.
		if rec.Code >= 500 {
			t.Fatalf("%q: %d: %s", body, rec.Code, rec.Body)
		}
		if rec.Code != http.StatusAccepted {
			// Refused whole: the full doubling can still be granted, and
			// an event on the first node past the graph is still refused.
			published := eng.Graph().NumNodes()
			if n := p.PendingEvents(); n != 0 {
				t.Fatalf("%q: %d: %d events pending", body, rec.Code, n)
			}
			if err := p.Update(0, stream.Event{From: 0, To: graph.NodeID(published), Weight: 0.5}); err == nil {
				t.Fatalf("%q: %d: the node range grew", body, rec.Code)
			}
			if err := p.Update(published); err != nil {
				t.Fatalf("%q: %d: growth left pending: %v", body, rec.Code, err)
			}
			return
		}
		req, err := decodeUpdate(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%q: 202 for a body that does not decode: %v", body, err)
		}
		nodes := eng.Graph().NumNodes() + req.NewNodes
		for _, u := range req.Updates {
			ok := u.From >= 0 && u.To >= 0 && int(u.From) < nodes && int(u.To) < nodes &&
				u.From != u.To && !math.IsNaN(u.Weight) && u.Weight >= 0 && u.Weight <= 1
			if !ok {
				t.Fatalf("%q: 202 with event %+v over %d nodes", body, u, nodes)
			}
		}
	})
}
