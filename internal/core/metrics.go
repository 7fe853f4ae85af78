package core

// Engine instrumentation (dependency-free, internal/obs). The engine
// exports exactly the signals PRs 1–3 were built to improve but could
// not observe: summary-cache hit rate, singleflight dedup ratio,
// build/index durations, and builds canceled by Engine.Close. Handles
// are resolved once at construction — per-method counters live in
// Method-indexed arrays — so the hot path pays one atomic add per
// event and never allocates.

import (
	"repro/internal/obs"
	"repro/internal/plan"
)

// Label is the method's metric label value ("lrw" / "rcl"), shared by
// every family partitioned by method.
func (m Method) Label() string {
	if m == MethodRCL {
		return "rcl"
	}
	return "lrw"
}

// engineMetrics holds the engine's obs handles; nil disables
// instrumentation (every use site is nil-checked).
type engineMetrics struct {
	// cacheHits/cacheMisses count summary-cache lookups on the online
	// path, indexed by Method.
	cacheHits   [2]*obs.Counter
	cacheMisses [2]*obs.Counter
	// builds counts topics a singleflight leader handed to the build —
	// missing still at the flight's recheck, built alone or in a block;
	// dedupWaits counts topics a caller deduplicated onto another
	// caller's in-flight build. dedupWaits/(builds+dedupWaits) is the
	// thundering-herd collapse ratio.
	builds     [2]*obs.Counter
	dedupWaits [2]*obs.Counter
	// buildsCanceled counts builds that failed because Engine.Close
	// canceled the lifecycle context (shutdown racing a cache miss).
	buildsCanceled *obs.Counter
	// warmTopics counts topics completed by warm runs (WarmTopics),
	// indexed by Method; warmDur observes the wall time of successful
	// runs. Per-topic build costs inside a warm reuse
	// buildDur — a warm build and an online cache-miss build are the
	// same summarization, observed by the same histogram.
	warmTopics [2]*obs.Counter
	warmDur    *obs.Histogram
	// buildDur observes one duration per successfully summarized topic
	// (the offline §3–4 work when it leaks onto the online path as a
	// cache miss): a topic built in a block observes its share of the
	// block's wall time, so its count is the topics built and a block of
	// lrw.Lanes topics and a lone build report cost in one unit.
	// indexDur observes BuildIndexes and PatchIndexes.
	buildDur *obs.Histogram
	indexDur *obs.Histogram
	// materializedSkipped counts q-related topics skipped by the
	// materialized-only search paths because no summary was cached —
	// the per-topic visibility of partial (degraded) answers.
	materializedSkipped [2]*obs.Counter
	// buildsSuspended counts builds refused because the method's circuit
	// breaker was open; breakerTrips counts closed→open transitions;
	// breakerState exposes the current state (0 closed, 1 half-open,
	// 2 open) as a gauge.
	buildsSuspended [2]*obs.Counter
	breakerTrips    [2]*obs.Counter
	breakerState    [2]*obs.Gauge
}

func newEngineMetrics(reg *obs.Registry) *engineMetrics {
	hits := reg.CounterVec("pit_summary_cache_hits_total",
		"Summary-cache hits by summarization method.", "method")
	misses := reg.CounterVec("pit_summary_cache_misses_total",
		"Summary-cache misses by summarization method.", "method")
	builds := reg.CounterVec("pit_summary_builds_total",
		"Singleflight leader executions: summarizations actually run.", "method")
	waits := reg.CounterVec("pit_summary_build_dedup_waits_total",
		"Callers deduplicated onto another caller's in-flight summarization.", "method")
	warm := reg.CounterVec("pit_warm_topics_total",
		"Topics completed by summary warm-up runs (WarmSummaries, WarmTopics).", "method")
	skipped := reg.CounterVec("pit_materialized_skipped_topics_total",
		"Q-related topics skipped by materialized-only searches because no summary was cached.", "method")
	suspended := reg.CounterVec("pit_summary_builds_suspended_total",
		"Summary builds refused because the method's circuit breaker was open.", "method")
	trips := reg.CounterVec("pit_breaker_trips_total",
		"Build circuit-breaker trips (closed/half-open to open transitions).", "method")
	state := reg.GaugeVec("pit_breaker_state",
		"Build circuit-breaker state: 0 closed, 1 half-open, 2 open.", "method")
	m := &engineMetrics{
		buildsCanceled: reg.Counter("pit_summary_builds_canceled_total",
			"Summary builds canceled by Engine.Close (shutdown racing a cache miss)."),
		buildDur: reg.Histogram("pit_summary_build_duration_seconds",
			"Duration of successful summarizations (cache-miss builds).",
			obs.DurationBuckets),
		indexDur: reg.Histogram("pit_index_build_duration_seconds",
			"Duration of BuildIndexes (walk + propagation index construction).",
			obs.DurationBuckets),
		warmDur: reg.Histogram("pit_warm_duration_seconds",
			"Wall time of successful warm-up runs, one observation per engine per run.",
			obs.DurationBuckets),
	}
	for _, method := range []Method{MethodLRW, MethodRCL} {
		l := method.Label()
		m.cacheHits[method] = hits.With(l)
		m.cacheMisses[method] = misses.With(l)
		m.builds[method] = builds.With(l)
		m.dedupWaits[method] = waits.With(l)
		m.warmTopics[method] = warm.With(l)
		m.materializedSkipped[method] = skipped.With(l)
		m.buildsSuspended[method] = suspended.With(l)
		m.breakerTrips[method] = trips.With(l)
		m.breakerState[method] = state.With(l)
	}
	return m
}

// breakerHook is method m's build-breaker OnStateChange: it keeps the
// state gauge current and counts trips. It captures the two metric
// handles and nothing else — the engine that replaces this one at a swap
// inherits the breaker (PatchIndexes), so a hook holding an engine would
// keep every retired one reachable. nil when instrumentation is off.
// Called with the breaker's lock held.
func (em *engineMetrics) breakerHook(m Method) func(from, to plan.State) {
	if em == nil {
		return nil
	}
	state, trips := em.breakerState[m], em.breakerTrips[m]
	return func(_, to plan.State) {
		state.Set(int64(to))
		if to == plan.Open {
			trips.Inc()
		}
	}
}
