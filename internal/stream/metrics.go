package stream

import (
	"repro/internal/core"
	"repro/internal/obs"
)

// pipeMetrics holds the pipeline's obs handles; nil disables
// instrumentation (every use site is nil-checked). Handles resolve once
// here so the apply path pays one atomic add per event and never
// allocates.
type pipeMetrics struct {
	// submitted counts events accepted by Update; applied counts events
	// that made it into a published engine. applied lags submitted by
	// the pending batch, and diverges when a batch's refresh fails: its
	// events are dropped, and with its growth the later events naming
	// the lost nodes.
	submitted *obs.Counter
	applied   *obs.Counter
	// batches counts successful applies; failures counts batches whose
	// refresh failed (their events are dropped).
	batches  *obs.Counter
	failures *obs.Counter
	// affected accumulates invalidated-topic counts across batches;
	// carried accumulates summaries reused from the retired engines,
	// per method, summed over the shards (each summary lives on one).
	// carried/(carried+affected) is the incremental-refresh payoff
	// ratio on a warm corpus.
	affected *obs.Counter
	carried  [2]*obs.Counter
	// swaps counts publications of the whole shard set (it moves once
	// per batch, with the generation's one pointer store — the same
	// number as batches, kept because both are scraped); lag observes the
	// time from the batch's first admission to its publication (batching
	// delay + rebuild time).
	swaps *obs.Counter
	lag   *obs.Histogram
	// pending gauges the current unapplied batch size.
	pending *obs.Gauge
}

func newPipeMetrics(reg *obs.Registry) *pipeMetrics {
	carried := reg.CounterVec("pit_stream_carried_summaries_total",
		"Summaries carried from the retired engines into the fresh ones, summed over shards, by method.", "method")
	m := &pipeMetrics{
		submitted: reg.Counter("pit_stream_events_submitted_total",
			"Edge events accepted into the pending batch."),
		applied: reg.Counter("pit_stream_events_applied_total",
			"Edge events applied into a published engine."),
		batches: reg.Counter("pit_stream_batches_applied_total",
			"Event batches successfully applied (one swap of the whole shard set each)."),
		failures: reg.Counter("pit_stream_apply_failures_total",
			"Event batches dropped because their refresh failed."),
		affected: reg.Counter("pit_stream_affected_topics_total",
			"Topic summaries invalidated by applied batches."),
		swaps: reg.Counter("pit_stream_engine_swaps_total",
			"Publications of a batch on every shard (old engines retired after drain)."),
		lag: reg.Histogram("pit_stream_rebuild_lag_seconds",
			"Age of the oldest batched event at engine publication.", obs.LagBuckets),
		pending: reg.Gauge("pit_stream_pending_events",
			"Events waiting in the unapplied batch."),
	}
	for _, mm := range []core.Method{core.MethodLRW, core.MethodRCL} {
		m.carried[mm] = carried.With(mm.Label())
	}
	return m
}
