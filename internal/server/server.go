// Package server exposes a PIT-Search backend over HTTP with a small
// JSON API — the deployment surface for the personalized services the
// paper's introduction motivates (personalized recommendation and search,
// target advertising, product promotion):
//
//	GET /search?q=<keywords>&user=<id>&k=<n>&method=<lrw|rcl>&lambda=<0..1>
//	GET /topics?q=<keywords>            — q-related topics (no ranking)
//	GET /stats                          — graph/index/topic-space counters
//	GET /healthz                        — liveness: process is up
//	GET /readyz                         — readiness: indexes are built
//
// With a streaming update surface attached (Config.Stream) two more
// routes mount:
//
//	POST /updates                       — submit edge events / node growth
//	POST /subscribe?q=&user=&k=&...     — standing query, pushes over SSE
//
// The backend is fixed for the server's lifetime. Streaming swaps
// engines underneath it a generation at a time, and following those
// swaps — including the retry of a request whose generation retired
// under it — is the backend's job (shard.Router does it once per
// request, at the hold), never a handler's. /search reports the
// generation the request held, which every tier computes its answer
// on, in the X-Pit-Generation header;
// /stats reads every field from one held generation and reports its ID.
// /subscribe bypasses the request deadline and the in-flight limiter —
// it is a long-lived event stream with its own bound
// (Config.MaxSubscribers) — and pushes flow through the statusRecorder's
// Flush/Unwrap path.
//
// The handler stack is production-hardened: every request gets an ID and
// an access-log line; panics in a handler are isolated into a single 500;
// a per-request deadline (Config.RequestTimeout) is threaded through the
// engine as a context so expired requests stop burning CPU; a semaphore
// (Config.MaxInflight) sheds excess load with 429 + Retry-After; and
// /search runs through the engine's fidelity ladder
// (a planned core.Query, DESIGN.md §13): a search whose full-fidelity
// attempt fails or runs out of time degrades to materialized summaries
// only and answers 200 with "degraded": true and the serving tier in the
// "tier" field and X-Pit-Tier header; only a request nothing cached can
// answer gets 503 + Retry-After.
//
// All handlers are read-only against the backend and safe for concurrent
// use. The backend's indexes may be built after New: until MarkReady is
// called the API answers 503 and /readyz reports not-ready, so index
// construction can run off the startup critical path.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/subscribe"
	"repro/internal/topics"
)

// statusClientClosedRequest is the de-facto (nginx) status code for a
// request abandoned by the client before the response was written.
const statusClientClosedRequest = 499

// tierHeader is the response header carrying the fidelity tier that
// served (or refused) a /search request.
const tierHeader = "X-Pit-Tier"

// generationHeader is the response header carrying the ID of the
// deployment generation a /search answer was computed on.
const generationHeader = "X-Pit-Generation"

// SearchResult is one JSON row of a /search response.
type SearchResult struct {
	Rank  int     `json:"rank"`
	Topic string  `json:"topic"`
	Tag   string  `json:"tag"`
	Score float64 `json:"score"`
}

// SearchResponse is the /search payload.
type SearchResponse struct {
	Query   string         `json:"query"`
	User    int32          `json:"user"`
	Method  string         `json:"method"`
	K       int            `json:"k"`
	Results []SearchResult `json:"results"`
	// Tier is the fidelity tier that served the answer ("full" or
	// "materialized") — always present and always matching the
	// X-Pit-Tier response header.
	Tier string `json:"tier"`
	// Degraded is set when the answer was served below full fidelity
	// (tier != "full"): materialized summaries only — a possibly partial
	// answer instead of an error (resource-constrained graceful
	// degradation).
	Degraded bool `json:"degraded,omitempty"`
}

// TopicsResponse is the /topics payload.
type TopicsResponse struct {
	Query  string   `json:"query"`
	Topics []string `json:"topics"`
}

// StatsResponse is the /stats payload: one generation's counters.
type StatsResponse struct {
	// Generation is the ID of the deployment generation every other
	// field was read from: 0 at boot, +1 per applied update batch.
	Generation       uint64  `json:"generation"`
	Nodes            int     `json:"nodes"`
	Edges            int     `json:"edges"`
	Topics           int     `json:"topics"`
	PropIndexEntries int     `json:"prop_index_entries"`
	PropIndexTheta   float64 `json:"prop_index_theta"`
	WalkL            int     `json:"walk_l"`
	WalkR            int     `json:"walk_r"`
	CachedLRW        int     `json:"cached_summaries_lrw"`
	CachedRCL        int     `json:"cached_summaries_rcl"`
	// Shards reports the serving partition width: always present (≥ 1)
	// behind pitserve, whose backend is the shard router at any width;
	// omitted only when the backend is a bare *core.Engine.
	Shards int `json:"shards,omitempty"`
}

// Backend is the query surface the server fronts, held for the server's
// lifetime: the *shard.Router in every pitserve deployment (one shard or
// many, static or streaming — engine swaps happen beneath it), or a
// static *core.Engine for in-process harnesses. The handlers cannot tell
// the difference, which is the point (scatter-gather and swap-following
// stay below the serving layer).
type Backend interface {
	Ready() bool
	Graph() *graph.Graph
	Space() *topics.Space
	core.Runner
	// Acquire holds the generation serving now until release, so a
	// concurrent retirement cannot unmap (or cancel) under a read of it.
	Acquire(ctx context.Context) (*core.Generation, func(), error)
}

// StreamBackend is the update surface behind POST /updates: the one
// stream.Pipeline above the deployment's shard set. A request's growth
// and events are validated and queued once, together or not at all; PendingEvents and Swaps describe the deployment —
// Swaps is the ID of the generation serving now: it moves once per
// batch, after every shard serves it.
type StreamBackend interface {
	Update(newNodes int, events ...stream.Event) error
	PendingEvents() int
	Swaps() uint64
}

type errorResponse struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

// Config tunes the serving stack. The zero value serves with no deadline,
// no load shedding, k capped at 100 and the standard logger.
type Config struct {
	// MaxK caps the k any request may ask for (default 100).
	MaxK int
	// RequestTimeout is the per-request deadline applied to /search,
	// /topics and /stats. Zero disables the deadline.
	RequestTimeout time.Duration
	// MaxInflight bounds concurrently served API requests; excess requests
	// are shed immediately with 429 + Retry-After. Zero disables shedding.
	// The materialized tier's timeout belongs to the engine's query
	// path, which owns the ladder; the server only annotates what it
	// served.
	MaxInflight int
	// Logger receives access-log, panic and encode-failure lines
	// (default log.Default()).
	Logger *log.Logger
	// Registry receives the server's metrics (request/status counters,
	// latency histograms, in-flight gauge, panic counter, serving tiers).
	// Nil means a private registry: the metrics are still collected, just
	// not exposed anywhere.
	Registry *obs.Registry
	// Stream, when set, attaches a streaming update surface: POST
	// /updates mounts. The backend passed to New must follow the engine
	// swaps it causes (a shard.Router over stream.Pipeline.Current does).
	Stream StreamBackend
	// Subscriptions, when set (requires Stream), mounts POST /subscribe:
	// standing queries with SSE push delivery after applied batches.
	Subscriptions *subscribe.Registry
	// MaxSubscribers bounds concurrently connected /subscribe streams
	// (default 256); excess subscribers get 429.
	MaxSubscribers int
}

func (c *Config) fill() {
	if c.MaxK <= 0 {
		c.MaxK = 100
	}
	if c.Logger == nil {
		c.Logger = log.Default()
	}
	if c.MaxSubscribers <= 0 {
		c.MaxSubscribers = 256
	}
}

// Server wraps a backend with HTTP handlers. Create with New, mount with
// Handler, flip MarkReady once the backend's indexes are built.
type Server struct {
	eng         Backend
	cfg         Config
	met         *serverMetrics
	ready       atomic.Bool
	reqSeq      atomic.Uint64
	inflight    chan struct{}
	subscribers chan struct{}
}

// New returns a Server over the backend. Its indexes do not have to be
// built yet: the server starts not-ready (API answers 503, /readyz
// reports failure) unless they already are. Call MarkReady after the
// index build (and any pre-materialization) completes.
func New(eng Backend, cfg Config) (*Server, error) {
	if eng == nil {
		return nil, fmt.Errorf("server: nil engine")
	}
	if cfg.Subscriptions != nil && cfg.Stream == nil {
		return nil, fmt.Errorf("server: Subscriptions requires Stream (pushes are driven by applied batches)")
	}
	cfg.fill()
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{eng: eng, cfg: cfg, met: newServerMetrics(reg)}
	if cfg.MaxInflight > 0 {
		s.inflight = make(chan struct{}, cfg.MaxInflight)
	}
	if cfg.Subscriptions != nil {
		s.subscribers = make(chan struct{}, cfg.MaxSubscribers)
	}
	if eng.Ready() {
		s.ready.Store(true)
	}
	return s, nil
}

// MarkReady flips /readyz to success and opens the API for traffic. Call
// it once the engine's indexes (and optional summary materialization)
// are built.
func (s *Server) MarkReady() { s.ready.Store(true) }

// Ready reports whether the server is accepting API traffic.
func (s *Server) Ready() bool { return s.ready.Load() }

// ctxKey is the context key type for request-scoped values.
type ctxKey int

const ridKey ctxKey = 0

// RequestID returns the request ID assigned by the middleware stack, or
// "" outside a request.
func RequestID(ctx context.Context) string {
	rid, _ := ctx.Value(ridKey).(string)
	return rid
}

// Handler returns the full middleware-wrapped route multiplexer:
//
//	request ID → access log → panic recovery → [API only: load shedding →
//	deadline] → routes
//
// Health endpoints bypass the limiter and the deadline so orchestrator
// probes keep answering under overload.
func (s *Server) Handler() http.Handler {
	api := http.NewServeMux()
	api.HandleFunc("GET /search", s.handleSearch)
	api.HandleFunc("GET /topics", s.handleTopics)
	api.HandleFunc("GET /stats", s.handleStats)
	if s.cfg.Stream != nil {
		api.HandleFunc("POST /updates", s.handleUpdates)
	}
	var apiH http.Handler = api
	apiH = s.withTimeout(apiH)
	apiH = s.withLimit(apiH)

	root := http.NewServeMux()
	root.Handle("/search", apiH)
	root.Handle("/topics", apiH)
	root.Handle("/stats", apiH)
	if s.cfg.Stream != nil {
		root.Handle("/updates", apiH)
	}
	if s.cfg.Subscriptions != nil {
		// Outside the limiter and the request deadline: a subscription
		// is a long-lived stream with its own concurrency bound, and a
		// deadline would kill it mid-push.
		root.HandleFunc("POST /subscribe", s.handleSubscribe)
	}
	root.HandleFunc("GET /healthz", s.handleHealthz)
	root.HandleFunc("GET /readyz", s.handleReadyz)

	var h http.Handler = root
	h = s.withRecovery(h)
	h = s.withAccessLog(h)
	h = s.withRequestID(h)
	return h
}

// statusRecorder captures the response status for the access log and lets
// the panic handler detect whether a response was already started.
type statusRecorder struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (r *statusRecorder) WriteHeader(code int) {
	if !r.wrote {
		r.status = code
		r.wrote = true
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if !r.wrote {
		r.status = http.StatusOK
		r.wrote = true
	}
	return r.ResponseWriter.Write(b)
}

// Unwrap exposes the wrapped writer to http.ResponseController, so
// Flusher/Hijacker/deadline control reach the real connection through
// the middleware stack instead of dead-ending at the recorder.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// Flush satisfies http.Flusher for handlers that type-assert instead of
// using ResponseController. Flushing commits the (implicit 200) status
// line, so the recorder marks the response started first — otherwise the
// panic handler could try to write a second status line mid-stream.
func (r *statusRecorder) Flush() {
	if !r.wrote {
		r.status = http.StatusOK
		r.wrote = true
	}
	// ResponseController resolves the underlying Flusher through Unwrap
	// chains, so this works even when another wrapper sits below.
	_ = http.NewResponseController(r.ResponseWriter).Flush()
}

// withRequestID assigns each request a process-unique ID, exposed to
// handlers via the context and to clients via the X-Request-ID header.
func (s *Server) withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := fmt.Sprintf("req-%08d", s.reqSeq.Add(1))
		w.Header().Set("X-Request-ID", rid)
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), ridKey, rid)))
	})
}

// withAccessLog emits one structured line per request with latency and
// final status, and records the request in the metrics registry
// (per-route count by final status, latency, in-flight gauge).
func (s *Server) withAccessLog(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		s.met.inflight.Inc()
		next.ServeHTTP(rec, r)
		s.met.inflight.Dec()
		dur := time.Since(start)
		s.met.observe(routeLabel(r.URL.Path), rec.status, dur.Seconds())
		s.cfg.Logger.Printf("%s method=%s path=%s status=%d dur=%s",
			RequestID(r.Context()), r.Method, r.URL.Path, rec.status, dur.Round(time.Microsecond))
	})
}

// withRecovery isolates a panicking handler into a single 500 (with the
// request ID) instead of tearing the whole process down.
func (s *Server) withRecovery(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				if p == http.ErrAbortHandler { // net/http's own abort protocol
					panic(p)
				}
				s.met.panics.Inc()
				s.cfg.Logger.Printf("%s panic serving %s: %v\n%s",
					RequestID(r.Context()), r.URL.Path, p, debug.Stack())
				if rec, ok := w.(*statusRecorder); !ok || !rec.wrote {
					s.writeErr(w, r, http.StatusInternalServerError, "internal error")
				}
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// withLimit sheds load once MaxInflight requests are already being
// served: excess requests get an immediate 429 with Retry-After instead
// of queueing toward collapse.
func (s *Server) withLimit(next http.Handler) http.Handler {
	if s.inflight == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.inflight <- struct{}{}:
			defer func() { <-s.inflight }()
			next.ServeHTTP(w, r)
		default:
			w.Header().Set("Retry-After", "1")
			s.writeErr(w, r, http.StatusTooManyRequests, "server at capacity (%d in-flight requests)", s.cfg.MaxInflight)
		}
	})
}

// withTimeout applies the per-request deadline; the context reaches the
// engine, whose cancellation checks stop the search mid-loop.
func (s *Server) withTimeout(next http.Handler) http.Handler {
	if s.cfg.RequestTimeout <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

func (s *Server) writeJSON(w http.ResponseWriter, r *http.Request, status int, payload interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(payload); err != nil {
		// The status line is gone; all we can do is leave a trace tied to
		// the request ID instead of dropping the failure silently.
		s.cfg.Logger.Printf("%s encode response: %v", RequestID(r.Context()), err)
	}
}

func (s *Server) writeErr(w http.ResponseWriter, r *http.Request, status int, format string, args ...interface{}) {
	s.writeJSON(w, r, status, errorResponse{
		Error:     fmt.Sprintf(format, args...),
		RequestID: RequestID(r.Context()),
	})
}

// requireReady gates an API handler until MarkReady: before that the
// engine is still building indexes and cannot answer.
func (s *Server) requireReady(w http.ResponseWriter, r *http.Request) bool {
	if s.ready.Load() {
		return true
	}
	w.Header().Set("Retry-After", "5")
	s.writeErr(w, r, http.StatusServiceUnavailable, "indexes are still building")
	return false
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "not ready: indexes building")
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}

// parseQuery validates the parameters shared by /search and /subscribe
// (a standing query is just a search registered for pushes) into a
// planned core.Query, writing the error response itself on failure.
// User existence is NOT checked here: /search answers it 404, /subscribe
// 400.
func (s *Server) parseQuery(w http.ResponseWriter, r *http.Request) (core.Query, bool) {
	q := core.Query{Text: r.URL.Query().Get("q"), K: 10}
	if q.Text == "" {
		s.writeErr(w, r, http.StatusBadRequest, "missing q parameter")
		return q, false
	}
	userStr := r.URL.Query().Get("user")
	user, err := strconv.ParseInt(userStr, 10, 32)
	if err != nil {
		s.writeErr(w, r, http.StatusBadRequest, "bad user %q", userStr)
		return q, false
	}
	q.User = graph.NodeID(user)
	if ks := r.URL.Query().Get("k"); ks != "" {
		q.K, err = strconv.Atoi(ks)
		if err != nil || q.K < 1 {
			s.writeErr(w, r, http.StatusBadRequest, "bad k %q", ks)
			return q, false
		}
	}
	if q.K > s.cfg.MaxK {
		q.K = s.cfg.MaxK
	}
	if name := r.URL.Query().Get("method"); name != "" {
		if q.Method, err = core.ParseMethod(name); err != nil {
			s.writeErr(w, r, http.StatusBadRequest, "%v", err)
			return q, false
		}
	}
	if ls := r.URL.Query().Get("lambda"); ls != "" {
		q.Lambda, err = strconv.ParseFloat(ls, 64)
		if err != nil || !(q.Lambda >= 0 && q.Lambda <= 1) { // NaN fails both comparisons
			s.writeErr(w, r, http.StatusBadRequest, "bad lambda %q (want 0..1)", ls)
			return q, false
		}
	}
	return q, true
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if !s.requireReady(w, r) {
		return
	}
	q, ok := s.parseQuery(w, r)
	if !ok {
		return
	}
	if !s.eng.Graph().Valid(q.User) {
		s.writeErr(w, r, http.StatusNotFound, "user %d not in the network", q.User)
		return
	}

	// The fidelity ladder owns degradation: full search, then
	// materialized-only, then an explicit 503. The server's job is only
	// to annotate what actually served the response.
	ans, err := s.eng.Run(r.Context(), q)
	if err != nil {
		s.failSearch(w, r, err)
		return
	}
	tier := ans.Outcome.Tier
	w.Header().Set(tierHeader, tier.String())
	w.Header().Set(generationHeader, strconv.FormatUint(ans.Generation, 10))
	s.met.tierServed(tier)
	s.writeJSON(w, r, http.StatusOK, SearchResponse{
		Query:    q.Text,
		User:     int32(q.User),
		Method:   q.Method.String(),
		K:        q.K,
		Results:  searchRows(ans.Results),
		Tier:     tier.String(),
		Degraded: tier != core.TierFull,
	})
}

// searchRows projects engine results onto the JSON row shape shared by
// /search responses and /subscribe pushes.
func searchRows(res []core.TopicResult) []SearchResult {
	rows := make([]SearchResult, 0, len(res))
	for i, tr := range res {
		rows = append(rows, SearchResult{
			Rank:  i + 1,
			Topic: tr.Topic.Label,
			Tag:   tr.Topic.Tag,
			Score: tr.Score,
		})
	}
	return rows
}

// failSearch maps a failed planned search to a response: 400 for
// invalid arguments, 499 for a client that went away, 503 while
// indexes build, 503 + Retry-After when the whole fidelity ladder is
// exhausted (ErrUnavailable — the ladder's explicit "nothing cached
// can answer"), 500 otherwise. A planned search never surfaces its own
// deadline: the ladder answers it from a lower tier or ErrUnavailable.
func (s *Server) failSearch(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, core.ErrInvalidArgument):
		s.writeErr(w, r, http.StatusBadRequest, "bad request: %v", err)
	case errors.Is(err, core.ErrNotReady):
		w.Header().Set("Retry-After", "5")
		s.writeErr(w, r, http.StatusServiceUnavailable, "indexes are still building")
	case errors.Is(err, core.ErrUnavailable):
		// The one planned 5xx: neither the full nor the materialized
		// tier could answer.
		w.Header().Set(tierHeader, core.TierUnavailable.String())
		w.Header().Set("Retry-After", "1")
		s.met.tierServed(core.TierUnavailable)
		s.writeErr(w, r, http.StatusServiceUnavailable, "no fidelity tier can answer: %v", err)
	case errors.Is(err, context.Canceled):
		// The client disconnected; nobody is reading the body, but the
		// status still lands in the access log.
		s.writeErr(w, r, statusClientClosedRequest, "client closed request")
	default:
		s.writeErr(w, r, http.StatusInternalServerError, "search failed: %v", err)
	}
}

func (s *Server) handleTopics(w http.ResponseWriter, r *http.Request) {
	if !s.requireReady(w, r) {
		return
	}
	q := r.URL.Query().Get("q")
	if q == "" {
		s.writeErr(w, r, http.StatusBadRequest, "missing q parameter")
		return
	}
	space := s.eng.Space()
	related := space.Related(q)
	resp := TopicsResponse{Query: q, Topics: make([]string, 0, len(related))}
	for _, t := range related {
		resp.Topics = append(resp.Topics, space.Topic(t).Label)
	}
	s.writeJSON(w, r, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if !s.requireReady(w, r) {
		return
	}
	// Stats reads index internals outside the query entry points, so it
	// holds one generation of the backend — every field below comes from
	// it, and a concurrent retire cannot unmap (or cancel) under the read.
	gen, release, err := s.eng.Acquire(r.Context())
	if err != nil {
		w.Header().Set("Retry-After", "5")
		s.writeErr(w, r, http.StatusServiceUnavailable, "engine unavailable: %v", err)
		return
	}
	g := gen.Graph()
	idx := gen.IndexStats()
	resp := StatsResponse{
		Generation:       gen.ID,
		Nodes:            g.NumNodes(),
		Edges:            g.NumEdges(),
		Topics:           gen.Space().NumTopics(),
		PropIndexEntries: idx.PropEntries,
		PropIndexTheta:   idx.Theta,
		WalkL:            idx.WalkL,
		WalkR:            idx.WalkR,
		CachedLRW:        gen.CachedSummaries(core.MethodLRW),
		CachedRCL:        gen.CachedSummaries(core.MethodRCL),
	}
	if sh, ok := s.eng.(interface{ Shards() int }); ok {
		resp.Shards = sh.Shards()
	}
	release()
	s.writeJSON(w, r, http.StatusOK, resp)
}
