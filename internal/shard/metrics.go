package shard

import (
	"repro/internal/obs"
	"repro/internal/search"
)

// routerMetrics holds the pit_shard_* instruments.
type routerMetrics struct {
	fanout *obs.Histogram // shards actually scattered to per query
	rounds *obs.Histogram // expansion levels driven per query
}

// fanoutBuckets covers 1..16 shards engaged.
var fanoutBuckets = []float64{0, 1, 2, 3, 4, 6, 8, 12, 16}

func newRouterMetrics(reg *obs.Registry) *routerMetrics {
	return &routerMetrics{
		fanout: reg.Histogram("pit_shard_scatter_fanout",
			"Shards scattered to per routed query (owning shards of the q-related topics).", fanoutBuckets),
		rounds: reg.Histogram("pit_shard_rounds",
			"Expansion levels driven per routed query.", obs.DepthBuckets),
	}
}

// observe records one routed query whose drive completed: the shards
// it gathered summaries from and its expansion levels.
func (m *routerMetrics) observe(fanout int, st search.Stats) {
	m.fanout.Observe(float64(fanout))
	m.rounds.Observe(float64(st.Depth))
}
