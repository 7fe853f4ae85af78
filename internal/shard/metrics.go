package shard

import (
	"time"

	"repro/internal/obs"
	"repro/internal/search"
)

// maxLabeledShards bounds the cardinality of the per-shard label:
// shards beyond it collapse into one overflow bucket, keeping the
// label set constant regardless of operator flags.
const maxLabeledShards = 16

// shardLabel maps a shard index onto a constant, bounded label set —
// the metrichygiene idiom for dynamic-but-bounded label values.
func shardLabel(i int) string {
	switch i {
	case 0:
		return "0"
	case 1:
		return "1"
	case 2:
		return "2"
	case 3:
		return "3"
	case 4:
		return "4"
	case 5:
		return "5"
	case 6:
		return "6"
	case 7:
		return "7"
	case 8:
		return "8"
	case 9:
		return "9"
	case 10:
		return "10"
	case 11:
		return "11"
	case 12:
		return "12"
	case 13:
		return "13"
	case 14:
		return "14"
	case 15:
		return "15"
	default:
		return "overflow"
	}
}

// routerMetrics holds the pit_shard_* instruments. Per-shard vec cells
// are resolved once at construction into plain slices, so the hot path
// indexes an array instead of formatting label values.
type routerMetrics struct {
	fanout  *obs.Histogram   // shards actually scattered to per query
	pruned  *obs.Counter     // shards dropped mid-scatter by the influence bound
	merge   *obs.Histogram   // cross-shard merge time per query
	rounds  *obs.Histogram   // expansion levels driven per query
	latency []*obs.Histogram // per-shard scatter time (open + expands)
}

// fanoutBuckets covers 1..16 shards engaged.
var fanoutBuckets = []float64{0, 1, 2, 3, 4, 6, 8, 12, 16}

func newRouterMetrics(reg *obs.Registry, shards int) *routerMetrics {
	m := &routerMetrics{
		fanout: reg.Histogram("pit_shard_scatter_fanout",
			"Shards scattered to per routed query (owning shards of the q-related topics).", fanoutBuckets),
		pruned: reg.Counter("pit_shard_pruned_total",
			"Shards dropped mid-scatter because the influence upper bound proved none of their topics can reach the top-k."),
		merge: reg.Histogram("pit_shard_merge_seconds",
			"Cross-shard gather/merge time per routed query (k-th score exchange and final ranking).", obs.DurationBuckets),
		rounds: reg.Histogram("pit_shard_rounds",
			"Expansion levels driven per routed query.", obs.DepthBuckets),
	}
	lat := reg.HistogramVec("pit_shard_latency_seconds",
		"Per-shard scatter time per routed query: session open plus every expansion level.", obs.DurationBuckets, "shard")
	n := shards
	if n > maxLabeledShards {
		n = maxLabeledShards + 1 // one overflow cell shared past the cap
	}
	for i := 0; i < n; i++ {
		m.latency = append(m.latency, lat.With(shardLabel(i)))
	}
	return m
}

// cell clamps a shard index into the pre-resolved label range.
func (m *routerMetrics) cell(i int) int {
	if i >= len(m.latency) {
		return len(m.latency) - 1
	}
	return i
}

func (m *routerMetrics) observeShard(i int, d time.Duration) {
	if m == nil {
		return
	}
	m.latency[m.cell(i)].Observe(d.Seconds())
}

// observeScatter records one routed query whose drive completed: the
// shards it fanned out to, its rounds and merge time, and the shards the
// bound froze mid-scatter. st is nil for an abandoned attempt.
func (m *routerMetrics) observeScatter(fanout int, st *search.Stats) {
	if m == nil || st == nil {
		return
	}
	m.fanout.Observe(float64(fanout))
	m.rounds.Observe(float64(st.Depth))
	m.merge.Observe(st.Merge.Seconds())
	m.pruned.Add(uint64(st.Frozen))
}
