package main

import (
	"fmt"
	"strconv"

	"repro/internal/core"
)

// workload is one deployment of pitserve plus the traffic it gets. Every
// workload runs the same phases — boots, an unmeasured checked pass,
// steady search rounds, refresh cycles, a closing checked pass — and
// differs in the server's flags and in how the measured time is split
// between steady rounds and refreshes. All serve preset data_350k
// (12 000 users, 54 019 links, 10 tags × 120 topics) at the paper's
// defaults L=6 R=16 θ=0.01, k=10, with -stream-batch 16 so one posted
// batch is one refresh.
type workload struct {
	name   string
	method string // lrw or rcl: warmed at boot and asked for by every request
	shards int    // 0: single engine
	// Sizes at -seconds 10; all scale linearly with -seconds. A workload
	// with perCycle > 0 is a churn workload: its search_* metrics come
	// from the round that follows each refresh, on the freshly swapped
	// engine, instead of from steady rounds.
	perRound int // requests per steady round
	pairs    int // upsert+delete refresh pairs
	perCycle int // requests of the round after each refresh
}

func (w workload) churn() bool { return w.perCycle > 0 }

// Why each exists is recorded in BENCHMARK.json and README.md.
var workloads = []workload{
	// The paper's tag query on warm LRW-A summaries: where a search or
	// propidx kernel change must show.
	{name: "tag_lrw", method: "lrw", perRound: 40, pairs: 2},
	// The same kernel over RCL-A's longer rep lists.
	{name: "tag_rcl", method: "rcl", perRound: 34, pairs: 4},
	// tag_lrw's script byte for byte (same sizes, so the same script)
	// behind the scatter-gather router.
	{name: "tag_sharded", method: "lrw", shards: 4, perRound: 40, pairs: 2},
	// The write side: refreshes, each followed by a round of reads.
	{name: "refresh_cycle", method: "lrw", pairs: 4, perCycle: 30},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func (w workload) coreMethod() core.Method {
	if w.method == "rcl" {
		return core.MethodRCL
	}
	return core.MethodLRW
}

// profile sizes a run: the full end-to-end run, the lighter load phase
// of a traced run, or the smoke run.
type profile struct {
	preset string
	scale  float64
	boots  int // setup_s is the median over these
	rounds int
	panel  int // requests of the closing pass
	// refWarmWorkers sizes the reference's summary warm-up; the traced
	// run warms with one worker so the time is core.warm_ms.
	refWarmWorkers int
	c1Pass         bool // one extra pass at a single client (loadgen.c1_search_p50_ms)
	// sizeScale multiplies the workload's perRound and pairs.
	sizeScale float64
}

const (
	warmTags     = 3  // tags refilled after every swap
	overlapReads = 8  // reads beside each in-flight refresh: fewer than fit before the swap
	batchEdges   = 16 // = -stream-batch, so one POST is one refresh
)

func fullProfile(seconds int) profile {
	return profile{preset: "data_350k", scale: 1, boots: 3, rounds: 9, panel: 40, sizeScale: float64(seconds) / 10}
}

// traceProfile is the load phase of a traced run: it only feeds the
// scraped and loadgen.* layer metrics, so one boot and a third of the
// rounds do.
func traceProfile(seconds int) profile {
	p := fullProfile(seconds)
	p.boots, p.rounds, p.refWarmWorkers, p.c1Pass = 1, 3, 1, true
	return p
}

func smokeProfile() profile {
	return profile{preset: "data_2k", scale: 0.25, boots: 1, rounds: 2, panel: 10, refWarmWorkers: 1, c1Pass: true, sizeScale: 0.25}
}

// shape sizes the workload's script under the profile.
func (w workload) shape(p profile, users, tags int) shape {
	scaled := func(n int) int {
		if n == 0 {
			return 0
		}
		return max(1, int(float64(n)*p.sizeScale+0.5))
	}
	perRound := scaled(w.perRound)
	rounds := p.rounds
	if perRound == 0 {
		rounds = 0
	}
	return shape{
		users: users, tags: tags,
		warm:      max(perRound, 2*tags),
		rounds:    rounds,
		perRound:  perRound,
		refreshes: 2 * scaled(w.pairs),
		overlap:   overlapReads,
		warmTags:  min(warmTags, tags),
		perCycle:  scaled(w.perCycle),
		panel:     p.panel,
		batch:     batchEdges,
	}
}

// serverFlags are pitserve's flags for the workload: all exist at the
// commit that added the benchmark. One warm worker leaves the other core
// to the calibration slices during a boot.
func (w workload) serverFlags(p profile) []string {
	flags := []string{
		"-preset", p.preset, "-scale", strconv.FormatFloat(p.scale, 'g', -1, 64),
		"-warm-summaries", w.method, "-warm-workers", "1",
		"-stream-batch", strconv.Itoa(batchEdges), "-stream-max-age", "30s",
	}
	if w.shards > 0 {
		flags = append(flags, "-shards", strconv.Itoa(w.shards))
	}
	return flags
}
