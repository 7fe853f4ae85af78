package main

// The traced run. Tracing inside pitserve is a later change, so the
// layers are measured from outside: the benchmark builds the same dataset
// and engine in its own process and replays the closing-pass requests
// (and two refreshes) stage by stage through the layers' public
// functions, recording one span per call. It never feeds an end-to-end
// metric: those come only from untraced runs against the real server.
//
// The replay runs on one P (GOMAXPROCS 1), so a span's duration is the
// work the call did, not work divided by however many cores happened to
// be idle — which is what the loaded server at c = nproc pays.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/lrw"
	"repro/internal/propidx"
	"repro/internal/randwalk"
	"repro/internal/rcl"
	"repro/internal/search"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/summary"
	"repro/internal/topics"
)

// span is one call into a layer. Spans of one request share Req; Parent
// is the span that caused this one (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"request"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, req int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].End = int64(time.Since(t.t0)) }

// do records fn as one span and returns its duration in ms.
func (t *tracer) do(name string, parent, req int, fn func() error) (float64, error) {
	id := t.begin(name, parent, req)
	err := fn()
	t.end(id)
	return float64(t.spans[id-1].End-t.spans[id-1].Start) / 1e6, err
}

// durations returns the duration (ms) of every span with the name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover (overlapping children are not
// counted twice).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

func (t *tracer) write(path string) error {
	type out struct {
		span
		SelfNs int64 `json:"self_ns"`
	}
	self := selfTimes(t.spans)
	rows := make([]out, len(t.spans))
	for i, s := range t.spans {
		rows[i] = out{s, self[s.ID]}
	}
	b, err := json.MarshalIndent(rows, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

const traceShards = 4

// replay is one traced run in progress.
type replay struct {
	ctx  context.Context
	env  *environ
	tr   *tracer
	eng  *core.Engine // the load phase's reference engine, warm for its method
	g    *graph.Graph
	sp   *topics.Space
	opts core.Options
	sc   script
	out  map[string]metric
}

func (r *replay) set(name string, value float64, unit string) { r.out[name] = metric{value, unit} }

// medianMs is the median duration of the spans with the name.
func (r *replay) medianMs(spanName string) float64 { return median(r.tr.durations(spanName)) }

// tracedReplay measures every layer in-process and returns the layer
// metrics plus whether the stage spans added up to the whole request.
func tracedReplay(ctx context.Context, env *environ, lr *loadResult) (map[string]metric, bool, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r := &replay{
		ctx: ctx, env: env, tr: &tracer{t0: time.Now()},
		eng: lr.ref.eng, g: lr.ref.g, sp: lr.ref.sp, opts: lr.ref.eng.Options(), sc: lr.script,
		out: map[string]metric{"core.warm_ms": {lr.ref.warmMs, "ms"}},
	}
	if err := r.indexes(); err != nil {
		return nil, false, err
	}
	if err := r.summarizers(); err != nil {
		return nil, false, err
	}
	topkShare, err := r.requests()
	if err != nil {
		return nil, false, err
	}
	if err := r.artifacts(); err != nil {
		return nil, false, err
	}
	if err := r.refreshes(); err != nil {
		return nil, false, err
	}
	if err := r.tr.write(filepath.Join(env.buildDir, "trace.json")); err != nil {
		return nil, false, err
	}
	// The predictions the layer → end-to-end table of the README rests on.
	overhead := r.out["trace.overhead_ratio"].Value
	builds := r.out["randwalk.build_ms"].Value + r.out["propidx.build_ms"].Value
	fmt.Fprintf(os.Stderr, "benchmark: trace: stage spans sum to %+.1f%% of the whole request (must be within 10%%)\n", overhead*100)
	fmt.Fprintf(os.Stderr, "benchmark: trace: search.topk is %.0f%% of an in-process request (predicted >= 80%%)\n", 100*topkShare)
	fmt.Fprintf(os.Stderr, "benchmark: trace: shard.router_overhead_ms = %.2f (predicted > 0)\n", r.out["shard.router_overhead_ms"].Value)
	fmt.Fprintf(os.Stderr, "benchmark: trace: index builds are %.0f%% of stream.flush (predicted >= 70%%)\n", 100*builds/r.out["stream.flush_ms"].Value)
	return r.out, overhead >= -0.10 && overhead <= 0.10, nil
}

// indexes builds the two offline indexes one layer at a time (the engine
// builds the same two, back to back, at every boot and every refresh).
func (r *replay) indexes() error {
	var walks *randwalk.Index
	var prop *propidx.Index
	walkMs, err := r.tr.do("randwalk.build", 0, 0, func() (err error) {
		walks, err = randwalk.Build(r.ctx, r.g, randwalk.Options{L: r.opts.WalkL, R: r.opts.WalkR, Seed: r.opts.Seed})
		return err
	})
	if err != nil {
		return err
	}
	propMs, err := r.tr.do("propidx.build", 0, 0, func() (err error) {
		prop, err = propidx.Build(r.ctx, r.g, propidx.Options{Theta: r.opts.Theta})
		return err
	})
	if err != nil {
		return err
	}
	r.set("randwalk.build_ms", walkMs, "ms")
	r.set("propidx.build_ms", propMs, "ms")
	r.set("randwalk.index_mb", float64(walks.MemoryBytes())/mb, "MB")
	r.set("propidx.entries", float64(prop.Size()), "count")
	return nil
}

// summarizers times both summarizers per topic over the first tag's topics.
func (r *replay) summarizers() error {
	lrwSum, err := lrw.New(r.g, r.sp, r.eng.Walks(), r.opts.LRW)
	if err != nil {
		return err
	}
	rclSum, err := rcl.New(r.g, r.sp, r.eng.Walks(), r.opts.RCL)
	if err != nil {
		return err
	}
	for _, t := range r.sp.Related(request{}.query()) {
		for name, s := range map[string]summary.Summarizer{"lrw.summarize": lrwSum, "rcl.summarize": rclSum} {
			if _, err := r.tr.do(name, 0, 0, func() error { _, err := s.Summarize(r.ctx, t); return err }); err != nil {
				return err
			}
		}
	}
	r.set("lrw.summarize_us", r.medianMs("lrw.summarize")*1000, "us")
	r.set("rcl.summarize_us", r.medianMs("rcl.summarize")*1000, "us")
	return nil
}

// newRouter stands up traceShards shard engines over the reference's
// indexes behind a router, as pitserve -shards does. The caller closes
// the engines.
func (r *replay) newRouter() (*shard.Router, []*core.Engine, error) {
	engines := make([]*core.Engine, traceShards)
	sources := make([]shard.EngineSource, traceShards)
	for i := range engines {
		e, err := core.New(r.g, r.sp, engineOptions())
		if err != nil {
			return nil, nil, err
		}
		if err := e.ShareIndexes(r.eng); err != nil {
			return nil, nil, err
		}
		engines[i], sources[i] = e, func() *core.Engine { return e }
	}
	part, err := shard.NewPartitioner(r.sp, traceShards)
	if err != nil {
		return nil, nil, err
	}
	router, err := shard.NewRouter(r.g, r.sp, part, sources, shard.Config{})
	return router, engines, err
}

// requests replays the closing pass stage by stage against the whole
// request, the handler, the other summary shape and the router. It
// returns search.topk's share of the whole in-process request.
func (r *replay) requests() (float64, error) {
	ctx, eng, sp, tr := r.ctx, r.eng, r.sp, r.tr
	searcher, err := search.New(eng.Prop(), r.opts.Search)
	if err != nil {
		return 0, err
	}
	router, shards, err := r.newRouter()
	if err != nil {
		return 0, err
	}
	defer func() {
		for _, e := range shards {
			e.Close()
		}
	}()
	srv, err := server.New(eng, server.Config{Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		return 0, err
	}
	handler := srv.Handler()
	// Untimed: every summary the replay touches is built first, on the
	// engine and on the shards, so each timed stage is its warm cost.
	for tag := 0; tag < warmTags; tag++ {
		related := sp.Related(request{Tag: tag}.query())
		for _, m := range []core.Method{core.MethodLRW, core.MethodRCL} {
			if _, err := eng.MaterializeTopics(ctx, m, related, 0); err != nil {
				return 0, err
			}
		}
		if _, err := router.SearchTopics(ctx, core.MethodLRW, related, 0, topK); err != nil {
			return 0, err
		}
	}

	var (
		topkMsSum, wholeMsSum                           float64
		stageShare                                      []float64 // per request: stage spans / whole request
		plannedOver, handlerOver, routerOver, respBytes []float64
		allocs, depth, frontier, pruned                 []float64
		mem0, mem1                                      runtime.MemStats
	)
	for i, q := range r.sc.Panel {
		id, user, query := i+1, graph.NodeID(q.User), q.query()
		var (
			related []topics.TopicID
			sums    []summary.Summary
			res     []search.Result
			body    bytes.Buffer
		)
		root := tr.begin("request", 0, id)
		relMs, _ := tr.do("topics.related", root, id, func() error { related = sp.Related(query); return nil })
		matMs, err := tr.do("core.materialize", root, id, func() (err error) {
			sums, err = eng.MaterializeTopics(ctx, core.MethodLRW, related, 1)
			return err
		})
		if err != nil {
			return 0, err
		}
		runtime.ReadMemStats(&mem0)
		topkMs, err := tr.do("search.topk", root, id, func() (err error) {
			res, err = searcher.TopK(ctx, user, sums, topK)
			return err
		})
		if err != nil {
			return 0, err
		}
		runtime.ReadMemStats(&mem1)
		allocs = append(allocs, float64(mem1.Mallocs-mem0.Mallocs))
		encMs, err := tr.do("server.encode", root, id, func() error { return encodeAnswer(&body, sp, q, res) })
		if err != nil {
			return 0, err
		}
		tr.end(root)
		respBytes = append(respBytes, float64(body.Len()))

		// The same request whole and un-spanned, then through the handler.
		t0 := time.Now()
		planned, _, err := eng.SearchPlanned(ctx, core.MethodLRW, query, user, topK, 0)
		if err != nil {
			return 0, err
		}
		plannedMs := ms(time.Since(t0))
		body.Reset()
		rows := make([]search.Result, len(planned))
		for j, p := range planned {
			rows[j] = search.Result{Topic: p.Topic.ID, Score: p.Score}
		}
		if err := encodeAnswer(&body, sp, q, rows); err != nil {
			return 0, err
		}
		wholeMs := ms(time.Since(t0))
		stageShare = append(stageShare, (relMs+matMs+topkMs+encMs)/wholeMs)
		topkMsSum, wholeMsSum = topkMsSum+topkMs, wholeMsSum+wholeMs
		plannedOver = append(plannedOver, (plannedMs-relMs-matMs-topkMs)*1000)

		rec := httptest.NewRecorder()
		hreq := httptest.NewRequest(http.MethodGet, "/search?q="+url.QueryEscape(query)+"&user="+strconv.Itoa(int(q.User))+"&k="+strconv.Itoa(topK), nil)
		t0 = time.Now()
		handler.ServeHTTP(rec, hreq)
		handlerOver = append(handlerOver, (ms(time.Since(t0))-plannedMs)*1000)
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("in-process handler answered %d for %v", rec.Code, q)
		}

		// The same kernel over the other summary shape.
		rclSums, err := eng.MaterializeTopics(ctx, core.MethodRCL, related, 1)
		if err != nil {
			return 0, err
		}
		if _, err := tr.do("search.topk_rcl", 0, id, func() error { _, err := searcher.TopK(ctx, user, rclSums, topK); return err }); err != nil {
			return 0, err
		}

		// The router against the single engine on the same inputs.
		shardMs, err := tr.do("shard.search", 0, id, func() error {
			_, err := router.SearchTopics(ctx, core.MethodLRW, related, user, topK)
			return err
		})
		if err != nil {
			return 0, err
		}
		t0 = time.Now()
		if _, err := eng.SearchTopics(ctx, core.MethodLRW, related, user, topK); err != nil {
			return 0, err
		}
		routerOver = append(routerOver, shardMs-ms(time.Since(t0)))

		// Exact work counts of Algorithm 10/11 for this request.
		st, err := eng.SearchTrace(ctx, core.MethodLRW, related, user, topK)
		if err != nil {
			return 0, err
		}
		nodes, cut := 0, 0
		for _, n := range st.FrontierSizes {
			nodes += n
		}
		for _, tt := range st.Topics {
			if tt.Pruned {
				cut++
			}
		}
		depth = append(depth, float64(st.Depth))
		frontier = append(frontier, float64(nodes))
		pruned = append(pruned, float64(cut))
	}
	// The median over requests, so one disturbed request cannot fail the run.
	r.set("trace.overhead_ratio", median(stageShare)-1, "ratio")
	r.set("topics.related_us", r.medianMs("topics.related")*1000, "us")
	r.set("core.materialize_us", r.medianMs("core.materialize")*1000, "us")
	r.set("search.topk_ms", r.medianMs("search.topk"), "ms")
	r.set("search.topk_rcl_ms", r.medianMs("search.topk_rcl"), "ms")
	r.set("search.topk_allocs", median(allocs), "count")
	r.set("search.expand_depth", mean(depth), "count")
	r.set("search.frontier_nodes", mean(frontier), "count")
	r.set("search.pruned_topics", mean(pruned), "count")
	r.set("core.planned_overhead_us", median(plannedOver), "us")
	r.set("server.handler_overhead_us", median(handlerOver), "us")
	r.set("server.response_bytes", mean(respBytes), "count")
	r.set("shard.search_ms", r.medianMs("shard.search"), "ms")
	r.set("shard.router_overhead_ms", median(routerOver), "ms")
	return topkMsSum / wholeMsSum, nil
}

// artifacts times the save, the raw open and the engine's cold start.
func (r *replay) artifacts() error {
	dir := filepath.Join(r.env.tmp, "artifacts")
	saveMs, err := r.tr.do("storage.save", 0, 0, func() error { return r.eng.SaveArtifacts(dir, storage.FormatV2) })
	if err != nil {
		return err
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	size := int64(0)
	for _, f := range files {
		info, err := f.Info()
		if err != nil {
			return err
		}
		size += info.Size()
	}
	openMs, err := r.tr.do("storage.open", 0, 0, func() error {
		_, hw, err := storage.OpenWalkIndex(filepath.Join(dir, core.WalkArtifact))
		if err != nil {
			return err
		}
		defer hw.Close()
		_, hp, err := storage.OpenPropIndex(filepath.Join(dir, core.PropArtifact))
		if err != nil {
			return err
		}
		return hp.Close()
	})
	if err != nil {
		return err
	}
	loadMs, err := r.tr.do("core.load_artifacts", 0, 0, func() error {
		cold, err := core.New(r.g, r.sp, engineOptions())
		if err != nil {
			return err
		}
		defer cold.Close()
		return cold.LoadArtifacts(dir)
	})
	if err != nil {
		return err
	}
	r.set("storage.save_ms", saveMs, "ms")
	r.set("storage.open_ms", openMs, "ms")
	r.set("storage.artifact_mb", float64(size)/mb, "MB")
	r.set("core.load_artifacts_ms", loadMs, "ms")
	return nil
}

// refreshes applies the script's upsert batch and the delete batch that
// restores the graph, first layer by layer (dynamic.Refresh leaves its
// input engine usable, so the reference survives), then through the
// streaming pipeline, which owns and retires the engines it is given.
func (r *replay) refreshes() error {
	ctx, tr := r.ctx, r.tr
	cur := r.eng
	defer func() {
		if cur != r.eng {
			cur.Close()
		}
	}()
	batches := [][]edge{r.sc.Upsert, r.sc.Delete}
	for i, batch := range batches {
		id := 1000 + i
		db := dynamic.Batch{}
		for _, e := range batch {
			db.Updates = append(db.Updates, dynamic.EdgeUpdate{From: graph.NodeID(e.From), To: graph.NodeID(e.To), Weight: e.Weight})
		}
		if _, err := tr.do("dynamic.apply", 0, id, func() error { _, err := dynamic.Apply(cur.Graph(), db); return err }); err != nil {
			return err
		}
		var fresh *core.Engine
		if _, err := tr.do("dynamic.refresh", 0, id, func() (err error) {
			fresh, _, err = dynamic.Refresh(ctx, cur, nil, db, r.opts.WalkL)
			return err
		}); err != nil {
			return err
		}
		if cur != r.eng {
			cur.Close()
		}
		cur = fresh
		q := r.sc.Refill[0][0]
		if _, err := tr.do("core.cold_search", 0, id, func() error {
			_, err := fresh.Search(ctx, core.MethodLRW, q.query(), graph.NodeID(q.User), topK)
			return err
		}); err != nil {
			return err
		}
	}
	pipe, err := stream.New(cur, stream.Config{BatchSize: batchEdges, MaxAge: 30 * time.Second, Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		return err
	}
	defer func() { pipe.Stop(); cur = pipe.Engine() }() // runs before the deferred Close of cur
	for i, batch := range batches {
		evs := make([]stream.Event, len(batch))
		for j, e := range batch {
			evs[j] = stream.Event{From: graph.NodeID(e.From), To: graph.NodeID(e.To), Weight: e.Weight}
		}
		if err := pipe.Submit(evs...); err != nil {
			return err
		}
		if _, err := tr.do("stream.flush", 0, 1000+i, func() error { return pipe.Flush(ctx) }); err != nil {
			return err
		}
	}
	r.set("dynamic.apply_ms", r.medianMs("dynamic.apply"), "ms")
	r.set("dynamic.refresh_ms", r.medianMs("dynamic.refresh"), "ms")
	r.set("core.cold_search_ms", r.medianMs("core.cold_search"), "ms")
	r.set("stream.flush_ms", r.medianMs("stream.flush"), "ms")
	return nil
}

// encodeAnswer writes the /search payload the server would for res.
func encodeAnswer(w io.Writer, sp *topics.Space, q request, res []search.Result) error {
	rows := make([]server.SearchResult, len(res))
	for i, r := range res {
		t := sp.Topic(r.Topic)
		rows[i] = server.SearchResult{Rank: i + 1, Topic: t.Label, Tag: t.Tag, Score: r.Score}
	}
	return json.NewEncoder(w).Encode(server.SearchResponse{
		Query: q.query(), User: q.User, Method: core.MethodLRW.String(), K: topK, Results: rows, Tier: "full",
	})
}
