package server

// HTTP-layer instrumentation (dependency-free, internal/obs). The
// middleware stack records per-route request counts by final status
// and latency, the in-flight gauge, and recovered panics; /search adds
// the fidelity tier it served. Every failure mode with its own status —
// shed (429), client gone (499) — is a code child of the request
// counter, and a degraded answer is a tier child, so no second counter
// has to agree with them.

import (
	"strconv"

	"repro/internal/core"
	"repro/internal/obs"
)

// serverMetrics holds the server's obs handles. A Server always has one:
// New substitutes a private registry when Config.Registry is nil, so the
// middleware never nil-checks.
type serverMetrics struct {
	// requests counts finished requests by route and final status code;
	// latency observes wall time by route.
	requests *obs.CounterVec
	latency  *obs.HistogramVec
	// inflight tracks requests currently inside the handler stack.
	inflight *obs.Gauge
	// panics counts handler panics isolated into a 500.
	panics *obs.Counter
	// tiers counts /search outcomes by the fidelity tier that served
	// (or, for "unavailable", refused) them. Children are resolved
	// eagerly per tier: the hot path is one atomic add, and every tier
	// exposes from the first scrape. Summing the children equals the
	// number of planned /search requests that got past validation.
	tiers [len(core.Tiers)]*obs.Counter // indexed by core.Tier
}

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	m := &serverMetrics{
		requests: reg.CounterVec("pit_http_requests_total",
			"Finished HTTP requests by route and status code.", "route", "code"),
		latency: reg.HistogramVec("pit_http_request_duration_seconds",
			"HTTP request wall time by route.", obs.DurationBuckets, "route"),
		inflight: reg.Gauge("pit_http_inflight_requests",
			"Requests currently being served."),
		panics: reg.Counter("pit_http_panics_total",
			"Handler panics recovered into a 500."),
	}
	tiers := reg.CounterVec("pit_search_tier_total",
		"Planned /search requests by the fidelity tier that served (or refused) them.", "tier")
	for _, t := range core.Tiers {
		m.tiers[t] = tiers.With(t.String())
	}
	return m
}

// tierServed records one planned search outcome.
func (m *serverMetrics) tierServed(t core.Tier) { m.tiers[t].Inc() }

// observe records one finished request. Route cardinality is bounded by
// routeLabel; the status-code label is the final code from the recorder.
// cmd/pitserve's TestMetricSeriesBounded holds both bounds.
func (m *serverMetrics) observe(route string, status int, seconds float64) {
	m.requests.With(route, strconv.Itoa(status)).Inc()
	m.latency.With(route).Observe(seconds)
}

// routeLabel maps a request path to a bounded label set so arbitrary
// client paths cannot explode the metric cardinality.
func routeLabel(path string) string {
	switch path {
	case "/search", "/topics", "/stats", "/healthz", "/readyz", "/updates", "/subscribe":
		return path
	default:
		return "other"
	}
}
