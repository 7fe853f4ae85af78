package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/server"
)

// environ is where a run builds and keeps its files: all inside the
// checkout's build directory.
type environ struct {
	root     string // module root
	buildDir string // <root>/.bench_build
	bin      string // the pitserve under test
	tmp      string // per-run scratch, removed at exit
}

func newEnviron(ctx context.Context) (*environ, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	env := &environ{root: root, buildDir: filepath.Join(root, ".bench_build")}
	if err := os.MkdirAll(env.buildDir, 0o755); err != nil {
		return nil, err
	}
	if env.bin, err = buildServer(ctx, root, env.buildDir); err != nil {
		return nil, err
	}
	if env.tmp, err = os.MkdirTemp(env.buildDir, "run-"); err != nil {
		return nil, err
	}
	return env, nil
}

func (e *environ) cleanup() { os.RemoveAll(e.tmp) }

const mb = 1 << 20 // bytes per reported MB

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// loadResult is what the load phase of a run measured.
type loadResult struct {
	e2e               map[string]metric
	layer             map[string]metric
	attempted, failed int64
	ref               *reference // still open: the traced replay reuses it
	script            script
}

// searchSamples are the searches a workload's search_* metrics are taken
// from, already normalised stretch by stretch.
type searchSamples struct {
	lat       []float64 // ms at reference speed
	rawLat    []float64
	qps       []float64 // one per stretch, at reference speed
	rawQps    []float64
	cpuMs     float64 // server CPU at reference speed
	searches  int
	loadedCal []float64 // median slice of each stretch
}

// addPass folds one steady round in. Capacity is Σ over clients of
// requests / Σ latencies: what the clients would get with no think time.
func (s *searchSamples) addPass(st stretch) {
	cal := median(st.slices)
	raw := st.latencies()
	s.rawLat = append(s.rawLat, raw...)
	s.lat = normaliseAll(s.lat, raw, cal)
	qps := 0.0
	for _, lat := range st.perClient {
		busy := 0.0
		for _, l := range lat {
			busy += l
		}
		if busy > 0 {
			qps += float64(len(lat)) / (busy / 1000)
		}
	}
	s.rawQps = append(s.rawQps, qps)
	s.qps = append(s.qps, qps*cal/calRefMs)
	s.cpuMs += normalise(st.cpuMs, cal)
	s.searches += len(raw)
	s.loadedCal = append(s.loadedCal, cal)
}

// addRefresh folds one refresh's share of a churn workload in: its
// searches and the server CPU it burned, rebuild included — CPU per
// search under churn. Latency and rate come from the round after it.
func (s *searchSamples) addRefresh(rs refreshSample) {
	s.cpuMs += normalise(rs.cpuMs, median(rs.slices))
	s.searches += len(rs.overlap) + len(rs.refill)
}

// runLoad boots the workload's server and drives it through every phase.
func runLoad(ctx context.Context, env *environ, w workload, p profile, seed int64) (res *loadResult, err error) {
	preset, err := dataset.PresetByName(p.preset)
	if err != nil {
		return nil, err
	}
	ref, err := buildReference(ctx, p.preset, p.scale, w.coreMethod(), p.refWarmWorkers)
	if err != nil {
		return nil, fmt.Errorf("reference engine: %w", err)
	}
	defer func() {
		if err != nil {
			ref.eng.Close()
		}
	}()
	sc := genScript(seed, w.shape(p, ref.g.NumNodes(), preset.Topics.Tags), ref.g.HasEdge)
	wantWarm, err := ref.expected(ctx, sc.Warm, topK)
	if err != nil {
		return nil, err
	}
	wantPanel, err := ref.expected(ctx, sc.Panel, topK)
	if err != nil {
		return nil, err
	}

	nclients := max(2, runtime.NumCPU())
	lg := &loadgen{method: w.method}
	for i := 0; i < nclients; i++ {
		lg.clients = append(lg.clients, newClient())
	}
	defer lg.close()
	var idle []float64
	for i := 0; i < 40; i++ {
		idle = append(idle, lg.clients[0].cal.slice())
	}

	setups, err := lg.boot(ctx, env, w, p)
	defer func() {
		if lg.srv != nil {
			lg.srv.stop() // a second stop is harmless; this covers every error path
		}
	}()
	if err != nil {
		return nil, err
	}

	// Unmeasured pass: fills the connection pool and the planner's
	// caches, and checks every answer against the engine's own.
	st, err := lg.pass(ctx, sc.Warm, nclients)
	if err != nil {
		return nil, err
	}
	lg.checkAnswers(sc.Warm, st.answers, wantWarm)

	var search searchSamples
	steady0, err := lg.srv.scrape()
	if err != nil {
		return nil, err
	}
	for _, reqs := range sc.Rounds {
		if st, err = lg.pass(ctx, reqs, nclients); err != nil {
			return nil, err
		}
		search.addPass(st)
	}
	steady1, err := lg.srv.scrape()
	if err != nil {
		return nil, err
	}
	var c1 []float64
	if p.c1Pass {
		if st, err = lg.pass(ctx, sc.Warm, 1); err != nil {
			return nil, err
		}
		c1 = normaliseAll(nil, st.latencies(), median(st.slices))
	}

	// Refresh cycles: upsert batch, then the delete batch that restores
	// the graph, so every second refresh ends on the original graph and
	// every refresh is identical work.
	var visible, refill, ack, overlapRaw []float64
	for i := range sc.Refill {
		batch := sc.Upsert
		if i%2 == 1 {
			batch = sc.Delete
		}
		rs, err := lg.refresh(ctx, batch, sc.Overlap[i], sc.Refill[i], max(1, w.shards))
		if err != nil {
			return nil, err
		}
		cal := median(rs.slices)
		visible = append(visible, normalise(rs.visibleMs, cal))
		refill = normaliseAll(refill, rs.refill, cal)
		ack = append(ack, rs.ackMs*1000)
		overlapRaw = append(overlapRaw, rs.overlap...)
		if w.churn() {
			search.addRefresh(rs)
			if st, err = lg.pass(ctx, sc.Cycle[i], nclients); err != nil {
				return nil, err
			}
			search.addPass(st)
		}
	}
	churn1, err := lg.srv.scrape()
	if err != nil {
		return nil, err
	}

	// Closing pass, on the graph the last delete batch restored: answers
	// must again equal the reference's, and are scored against the
	// ground truth.
	if st, err = lg.pass(ctx, sc.Panel, nclients); err != nil {
		return nil, err
	}
	lg.checkAnswers(sc.Panel, st.answers, wantPanel)
	var precisions []float64
	for i, ans := range st.answers {
		if ans == nil {
			continue
		}
		pr, err := ref.precision(sc.Panel[i], ans.Results, topK)
		if err != nil {
			lg.ops.fail("%v: %v", sc.Panel[i], err)
			continue
		}
		precisions = append(precisions, pr)
	}

	heap, err := lg.srv.liveHeapBytes()
	if err != nil {
		return nil, err
	}
	rss, err := lg.srv.peakRSSBytes()
	if err != nil {
		return nil, err
	}
	lg.srv.stop()

	res = &loadResult{
		ref: ref, script: sc,
		attempted: lg.ops.attempted.Load(), failed: lg.ops.failed.Load(),
		e2e: map[string]metric{
			"setup_s":               {median(setups) / 1000, "s"},
			"search_p50_ms":         {percentile(search.lat, 50), "ms"},
			"search_p95_ms":         {percentile(search.lat, 95), "ms"},
			"search_qps":            {median(search.qps), "1/s"},
			"cpu_ms_per_search":     {search.cpuMs / float64(search.searches), "ms"},
			"live_heap_mb":          {heap / mb, "MB"},
			"precision_at_k":        {mean(precisions), "ratio"},
			"update_visible_p50_ms": {median(visible), "ms"},
			"refill_search_p50_ms":  {median(refill), "ms"},
		},
	}

	// Layer metrics seen from outside: counter deltas over the stretch
	// the search_* metrics come from, and the generator's own context.
	from, to, units := steady0, steady1, 1.0
	if w.churn() {
		from, to, units = steady1, churn1, float64(len(sc.Refill))
	}
	delta := func(a, b metricSet, family string) float64 { return b.sum(family) - a.sum(family) }
	hits, misses := delta(from, to, "pit_summary_cache_hits_total"), delta(from, to, "pit_summary_cache_misses_total")
	batches := delta(steady1, churn1, "pit_stream_batches_applied_total")
	shardQueries := delta(from, to, "pit_shard_rounds_count")
	res.layer = map[string]metric{
		"core.cache_hit_ratio":          {ratio(hits, hits+misses), "ratio"},
		"core.summary_builds":           {delta(from, to, "pit_summary_builds_total") / units, "count"},
		"core.dedup_waits":              {delta(from, to, "pit_summary_build_dedup_waits_total") / units, "count"},
		"shard.rounds_per_query":        {ratio(delta(from, to, "pit_shard_rounds_sum"), shardQueries), "count"},
		"shard.pruned_per_query":        {ratio(delta(from, to, "pit_shard_pruned_total"), shardQueries), "count"},
		"stream.affected_per_batch":     {ratio(delta(steady1, churn1, "pit_stream_affected_topics_total"), batches), "count"},
		"stream.carried_per_batch":      {ratio(delta(steady1, churn1, "pit_stream_carried_summaries_total"), batches), "count"},
		"server.update_ack_us":          {median(ack), "us"},
		"loadgen.calib_idle_ms":         {median(idle), "ms"},
		"loadgen.calib_loaded_ms":       {median(search.loadedCal), "ms"},
		"loadgen.raw_search_p50_ms":     {percentile(search.rawLat, 50), "ms"},
		"loadgen.raw_search_qps":        {median(search.rawQps), "1/s"},
		"loadgen.c1_search_p50_ms":      {percentile(c1, 50), "ms"},
		"loadgen.refresh_search_p95_ms": {percentile(overlapRaw, 95), "ms"},
		"proc.peak_rss_mb":              {rss / mb, "MB"},
	}
	return res, nil
}

// boot starts the workload's server p.boots times, stopping all but the
// last, and returns each set-up time at reference speed. Set-up is exec →
// /readyz 200: dataset generation, index build and summary warm-up.
func (lg *loadgen) boot(ctx context.Context, env *environ, w workload, p profile) ([]float64, error) {
	var setups []float64
	for i := 0; i < p.boots; i++ {
		if lg.srv != nil {
			lg.srv.stop()
		}
		t0 := time.Now()
		srv, err := startServer(env.bin, filepath.Join(env.tmp, "pitserve.log"), w.serverFlags(p))
		if err != nil {
			return nil, err
		}
		lg.srv = srv
		slices, err := srv.awaitReady(ctx, lg.clients[0].cal, 120*time.Second)
		if err != nil {
			return nil, err
		}
		setups = append(setups, normalise(ms(time.Since(t0)), median(slices)))
	}
	return setups, nil
}

// ratio is a/b, and 0 when the layer saw no work (b = 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// checkAnswers fails every answer that differs from the reference's.
func (lg *loadgen) checkAnswers(reqs []request, got []*server.SearchResponse, want [][]core.TopicResult) {
	for i, ans := range got {
		if ans != nil && !sameAnswer(ans.Results, want[i]) {
			lg.ops.fail("%v: answer differs from core.Engine.Search on the same dataset", reqs[i])
		}
	}
}
