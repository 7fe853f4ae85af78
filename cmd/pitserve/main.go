// Command pitserve serves PIT-Search over HTTP: it loads (or generates) a
// dataset, builds the offline indexes off the startup critical path,
// optionally pre-materializes every topic summary, and exposes the JSON
// API of internal/server behind a production-hardened http.Server.
//
// Usage:
//
//	pitserve -preset data_2k -addr :8080 -ops-addr 127.0.0.1:9090
//	pitserve -graph g.tsv -topics t.tsv -warm-summaries lrw
//
// Then:
//
//	curl 'localhost:8080/readyz'        # 503 until indexes are built
//	curl 'localhost:8080/search?q=tag003&user=42&k=5'
//	curl 'localhost:8080/stats'
//	curl 'localhost:9090/metrics'       # Prometheus text exposition
//	go tool pprof localhost:9090/debug/pprof/profile
//
// The operational surface (-ops-addr, disabled when empty) is a second
// listener isolated from the API: metrics scrapes and pprof captures
// keep answering while the API sheds load, and the API port never
// exposes profiling handlers.
//
// The process listens immediately; /healthz answers at once while /readyz
// flips to 200 only after index construction (and materialization, when
// requested) completes. SIGINT/SIGTERM triggers a graceful shutdown that
// stops accepting connections, drains in-flight requests for up to
// -shutdown-timeout, force-closes any straggler, then exits.
//
// Searches are served through the fidelity ladder: every search attempts
// the full search, and only a real failure — the deadline firing, a
// failed build — walks it down to materialized summaries only, then an
// explicit 503. The ladder has no flags. Every /search response carries
// its serving tier in the X-Pit-Tier header (see DESIGN.md §13).
// README's Operations section lists every flag.
//
// -stream-batch > 0 turns the static-index server into a continuously
// updating one (DESIGN.md §15): POST /updates feeds edge events into a
// batching pipeline (-stream-batch events or -stream-max-age, whichever
// first) that incrementally refreshes and hot-swaps the engines, and
// POST /subscribe registers standing queries pushed over SSE when an
// applied batch changes their top-k. -decay-halflife fades queued
// event weights by age before application.
//
// Serving is always partitioned (DESIGN.md §16): the summary corpus is
// split across -shards N engines (default 1) by stable topic hash, and
// every query runs through the scatter-gather router over the owning
// shards with bound-based shard pruning — byte-identical answers at any
// N, independent failure domains for N > 1. -index-dir is the dataset's
// artifact directory and knows nothing of N: a populated one (written by
// `datagen -index-dir`, `pitsearch -index-dir` or a pitserve of any
// width) cold-starts the shards, each mapping the same files and keeping
// the summaries it owns; otherwise indexes are built once, shared by all
// shards, and saved back as those same files. With streaming on, one
// pipeline above the shard set applies every batch once — one graph, one
// affected set — rebuilds the shards' engines side by side and swaps all
// of them or none; the router follows the swaps.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/subscribe"
)

// options carries every flag so the whole app is buildable from tests.
type options struct {
	preset          string
	scale           float64
	graphIn         string
	topicsIn        string
	addr            string
	opsAddr         string
	smoke           bool
	theta           float64
	walkL, walkR    int
	seed            int64
	maxK            int
	warmSummaries   string
	warmWorkers     int
	requestTimeout  time.Duration
	maxInflight     int
	shutdownTimeout time.Duration
	indexDir        string
	streamBatch     int
	streamMaxAge    time.Duration
	decayHalfLife   time.Duration
	shards          int
}

// warmMethods resolves the -warm-summaries flag into the methods to
// pre-warm.
func (o options) warmMethods() ([]core.Method, error) {
	switch o.warmSummaries {
	case "":
		return nil, nil
	case "lrw":
		return []core.Method{core.MethodLRW}, nil
	case "rcl":
		return []core.Method{core.MethodRCL}, nil
	case "all":
		return []core.Method{core.MethodLRW, core.MethodRCL}, nil
	}
	return nil, fmt.Errorf("-warm-summaries: unknown selection %q (want lrw, rcl or all)", o.warmSummaries)
}

// app is the wired-but-not-yet-ready server: the dataset is loaded and
// the HTTP surface exists, but the indexes build in prepare.
type app struct {
	opts options
	srv  *server.Server
	reg  *obs.Registry
	subs *subscribe.Registry

	// The one serving topology: -shards engines behind a scatter-gather
	// router. pipe is nil unless -stream-batch > 0. The app holds no
	// engine itself: the router's generation source (the pipeline's,
	// when streaming) is the only holder, so a boot engine a swap
	// retired is garbage — walk index, Γ and summary cache included.
	part   *shard.Partitioner
	router *shard.Router
	pipe   *stream.Pipeline
}

// closeEngine stops the streaming pipeline (if any) and closes every
// engine currently serving; engines superseded earlier were already
// retired at their swap. Safe to call more than once.
func (a *app) closeEngine() {
	if a.pipe != nil {
		a.pipe.Stop()
	}
	a.router.Close()
}

// registerFlags binds every pitserve flag to a field of o. README's
// Operations flag table documents exactly this set (TestFlagsDocumented).
func registerFlags(fs *flag.FlagSet, o *options) {
	fs.StringVar(&o.preset, "preset", "data_2k", "dataset preset (ignored when -graph/-topics are given)")
	fs.Float64Var(&o.scale, "scale", 1, "preset scale factor")
	fs.StringVar(&o.graphIn, "graph", "", "graph TSV file (with -topics, replaces the preset)")
	fs.StringVar(&o.topicsIn, "topics", "", "topic-space TSV file")
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.StringVar(&o.opsAddr, "ops-addr", "", "operational listener address for /metrics and /debug/pprof (empty disables)")
	fs.BoolVar(&o.smoke, "smoke", false, "one-shot smoke run: serve on ephemeral ports, issue searches, verify /metrics, exit")
	fs.Float64Var(&o.theta, "theta", 0.01, "propagation-index threshold θ")
	fs.IntVar(&o.walkL, "L", 6, "random-walk length L")
	fs.IntVar(&o.walkR, "R", 16, "random walks per node R")
	fs.Int64Var(&o.seed, "seed", 1, "RNG seed")
	fs.IntVar(&o.maxK, "max-k", 100, "maximum k a request may ask for")
	fs.StringVar(&o.warmSummaries, "warm-summaries", "", "warm the whole summary corpus before /readyz flips: lrw, rcl or all (empty disables)")
	fs.IntVar(&o.warmWorkers, "warm-workers", 0, "worker pool size for the summary warm-up (≤0: GOMAXPROCS)")
	fs.DurationVar(&o.requestTimeout, "request-timeout", 10*time.Second, "per-request deadline for API calls (0 disables)")
	fs.IntVar(&o.maxInflight, "max-inflight", 256, "max concurrently served API requests before shedding with 429 (0 disables)")
	fs.DurationVar(&o.shutdownTimeout, "shutdown-timeout", 15*time.Second, "how long a SIGTERM drains in-flight requests before stragglers are force-closed")
	fs.StringVar(&o.indexDir, "index-dir", "", "artifact directory: cold-start from it when populated (by `datagen -index-dir` or an earlier run at any -shards), save freshly built indexes into it otherwise (empty disables persistence)")
	fs.IntVar(&o.streamBatch, "stream-batch", 0, "streaming updates: apply a batch once this many events are pending (0 disables streaming; enables POST /updates and /subscribe)")
	fs.DurationVar(&o.streamMaxAge, "stream-max-age", time.Second, "streaming updates: apply a smaller batch once its oldest event is this old")
	fs.DurationVar(&o.decayHalfLife, "decay-halflife", 0, "halve a queued event's edge weight per this much age at application time (0 disables decay)")
	fs.IntVar(&o.shards, "shards", 1, "partition the summary corpus across N shard engines behind the scatter-gather router (at least 1)")
}

func main() {
	var o options
	registerFlags(flag.CommandLine, &o)
	flag.Parse()

	if o.smoke {
		if err := runSmoke(o); err != nil {
			fmt.Fprintln(os.Stderr, "pitserve -smoke:", err)
			os.Exit(1)
		}
		return
	}
	a, err := buildApp(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pitserve:", err)
		os.Exit(1)
	}
	if err := a.run(); err != nil {
		fmt.Fprintln(os.Stderr, "pitserve:", err)
		os.Exit(1)
	}
}

// buildApp loads the dataset and wires the shard engines, the router and
// the HTTP server. Indexes are NOT built yet — call prepare
// (synchronously in tests, in the background in run) and then the server
// reports ready.
func buildApp(o options) (*app, error) {
	if o.shards < 1 {
		return nil, fmt.Errorf("-shards: need at least 1 shard, got %d", o.shards)
	}
	if _, err := o.warmMethods(); err != nil {
		return nil, err // reject a bad -warm-summaries before loading data
	}
	g, sp, err := dataset.LoadPresetOrFiles(o.preset, o.scale, o.graphIn, o.topicsIn)
	if err != nil {
		return nil, err
	}
	// One registry spans every layer: engine (cache/singleflight/build
	// durations), query path (frontier truncations), router,
	// streaming and HTTP. All families register at construction, so a
	// scrape of an idle process already lists every metric name — the
	// names README's metrics table documents.
	reg := obs.NewRegistry()
	a := &app{opts: o, reg: reg}
	engines := make([]*core.Engine, o.shards)
	for i := range engines {
		engines[i], err = core.New(g, sp, core.Options{
			WalkL: o.walkL, WalkR: o.walkR, Theta: o.theta, Seed: o.seed, Metrics: reg,
		})
		if err != nil {
			return nil, err
		}
	}
	a.part, err = shard.NewPartitioner(sp, o.shards)
	if err != nil {
		return nil, err
	}
	srvCfg := server.Config{
		MaxK:           o.maxK,
		RequestTimeout: o.requestTimeout,
		MaxInflight:    o.maxInflight,
		Registry:       reg,
	}
	gen := core.Static(engines...)
	if o.streamBatch > 0 {
		a.subs = subscribe.NewRegistry(reg)
		a.pipe, err = stream.NewSet(engines, stream.Config{
			BatchSize:     o.streamBatch,
			MaxAge:        o.streamMaxAge,
			DecayHalfLife: o.decayHalfLife,
			Metrics:       reg,
			OnApply: func(ctx context.Context, r stream.ApplyResult) {
				// Standing queries evaluate against the router; by now
				// every shard it scatters to serves the batch.
				a.subs.Dispatch(ctx, a.router, r.Stats.Affected, r.Seq)
			},
		})
		if err != nil {
			return nil, err
		}
		gen = a.pipe.Current
		srvCfg.Stream = a.pipe
		srvCfg.Subscriptions = a.subs
	}
	a.router, err = shard.New(a.part, gen, shard.Config{Metrics: reg})
	if err != nil {
		return nil, err
	}
	a.srv, err = server.New(a.router, srvCfg)
	if err != nil {
		return nil, err
	}
	return a, nil
}

// opsHandler is the operational surface served on -ops-addr: the
// Prometheus exposition plus the pprof handlers, kept off the API
// listener so profiling is never reachable from the public port and
// scrapes keep answering while the API sheds load.
func (a *app) opsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", a.reg.Handler())
	// Explicit registrations instead of net/http/pprof's init side effect
	// on DefaultServeMux, which this process never serves.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// prepare makes every shard ready — cold-starting from the -index-dir
// artifacts when they exist (summaries included, so the warm-up below is
// a cache-hit sweep; artifacts of another dataset or format fail
// loudly here, not at query time), otherwise building the
// indexes once and sharing them — warms each shard's owned slice of the
// corpus, saves a fresh build back to -index-dir so the next start is a
// cold start, and flips the server to ready. ctx cancellation (e.g.
// SIGTERM during a long materialization) aborts it.
func (a *app) prepare(ctx context.Context) error {
	start := time.Now()
	// The boot set, read off the router: nothing swaps before the
	// pipeline starts at the end of prepare, and nothing keeps this
	// slice after it returns.
	dir, n := a.opts.indexDir, a.router.Shards()
	engines := make([]*core.Engine, n)
	for i := range engines {
		engines[i] = a.router.Engine(i)
	}
	sp := a.router.Space()
	loaded, err := shard.LoadArtifacts(ctx, engines, dir)
	if err != nil {
		return fmt.Errorf("load artifacts for %d shards from %s: %w", n, dir, err)
	}
	if loaded {
		log.Printf("artifacts loaded from %s into %d shard(s) in %v", dir, n, time.Since(start).Round(time.Millisecond))
	} else {
		if err := shard.BuildIndexes(ctx, engines); err != nil {
			return err
		}
		g := a.router.Graph()
		log.Printf("indexes built once for %d shard(s) in %v (%d users, %d links, %d topics)",
			n, time.Since(start).Round(time.Millisecond), g.NumNodes(), g.NumEdges(), sp.NumTopics())
	}
	methods, err := a.opts.warmMethods()
	if err != nil {
		return err
	}
	for _, m := range methods {
		start = time.Now()
		stride := max(sp.NumTopics()/10, 1)
		err := a.router.WarmOwned(ctx, m, core.WarmOptions{
			Workers: a.opts.warmWorkers,
			Progress: func(done, total int) {
				if done%stride == 0 || done == total {
					log.Printf("warming %s summaries: %d/%d topics", m, done, total)
				}
			},
		})
		if err != nil {
			return fmt.Errorf("warm %s summaries: %w", m, err)
		}
		log.Printf("warmed %d %s topic summaries across %d shard(s) in %v",
			sp.NumTopics(), m, n, time.Since(start).Round(time.Millisecond))
	}
	if dir != "" && !loaded {
		saveStart := time.Now()
		if err := core.WriteArtifacts(dir, engines...); err != nil {
			return fmt.Errorf("save artifacts for %d shards to %s: %w", n, dir, err)
		}
		log.Printf("artifacts saved to %s in %v", dir, time.Since(saveStart).Round(time.Millisecond))
	}
	for i, eng := range engines {
		log.Printf("shard %d ready: %d owned topics, %d lrw / %d rcl summaries cached",
			i, len(a.part.Owned(i)), eng.CachedSummaries(core.MethodLRW), eng.CachedSummaries(core.MethodRCL))
	}
	a.srv.MarkReady()
	if a.pipe != nil {
		// Started only after the initial indexes exist: the first applied
		// batch refreshes from fully built engines.
		a.pipe.Start()
		log.Printf("streaming pipeline started over %d shard(s) (batch %d, max age %v)",
			n, a.opts.streamBatch, a.opts.streamMaxAge)
	}
	return nil
}

// run listens immediately, builds indexes in the background, and shuts
// down gracefully on SIGINT/SIGTERM.
func (a *app) run() error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// baseCtx backs every request's context. It must NOT be the signal
	// context: a SIGTERM would instantly cancel all in-flight searches
	// (they'd answer 499) instead of letting Shutdown drain them. It is
	// canceled only after the drain, to hard-stop any request that
	// outlived the grace period.
	baseCtx, cancelBase := context.WithCancel(context.Background())
	defer cancelBase()
	// Engine shutdown stops detached summary builds (waiters can't cancel
	// them by design); deferred so error-path returns also clean up. Under
	// streaming this also stops the pipeline and closes whichever engine
	// the last swap installed.
	defer a.closeEngine()

	httpSrv := &http.Server{
		Addr:              a.opts.addr,
		Handler:           a.srv.Handler(),
		ReadTimeout:       10 * time.Second,
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      a.opts.requestTimeout + 30*time.Second,
		IdleTimeout:       2 * time.Minute,
		BaseContext:       func(net.Listener) context.Context { return baseCtx },
	}

	if a.opts.opsAddr != "" {
		// No WriteTimeout: /debug/pprof/profile legitimately streams for
		// its full -seconds window.
		opsSrv := &http.Server{
			Addr:              a.opts.opsAddr,
			Handler:           a.opsHandler(),
			ReadHeaderTimeout: 5 * time.Second,
		}
		defer opsSrv.Close()
		go func() {
			log.Printf("ops listener on %s (/metrics, /debug/pprof)", a.opts.opsAddr)
			if err := opsSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("ops listener: %v", err)
			}
		}()
	}

	prepErr := make(chan error, 1)
	go func() { prepErr <- a.prepare(ctx) }()

	serveErr := make(chan error, 1)
	go func() {
		log.Printf("pitserve listening on %s (not ready until indexes are built)", a.opts.addr)
		serveErr <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-serveErr:
		return err
	case err := <-prepErr:
		if err != nil {
			shutCtx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			_ = httpSrv.Shutdown(shutCtx)
			return fmt.Errorf("index build: %w", err)
		}
		// Ready; keep serving until a signal or a listener error.
		select {
		case err := <-serveErr:
			return err
		case <-ctx.Done():
		}
	case <-ctx.Done():
	}

	log.Printf("signal received; draining in-flight requests (timeout %v)", a.opts.shutdownTimeout)
	err := drainAndStop(httpSrv, a.opts.shutdownTimeout)
	cancelBase()    // drain is over: stop engine work for any straggler
	a.closeEngine() // and stop the pipeline + detached builds no request context reaches
	if err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Printf("pitserve exited cleanly")
	return nil
}

// drainAndStop bounds the graceful drain: Shutdown stops the listener
// and waits up to timeout for in-flight requests to finish; if any
// straggler is still running when the timeout expires, the server is
// force-closed so a stuck handler can never hang process exit. Returns
// Shutdown's error (nil on a clean drain).
func drainAndStop(hs *http.Server, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	err := hs.Shutdown(ctx)
	if err != nil {
		hs.Close() // cut connections the drain could not reclaim
	}
	return err
}

// runSmoke is the one-shot end-to-end check behind -smoke: build a small
// engine, serve API and ops listeners on ephemeral ports, issue real
// searches and an update batch over HTTP, then scrape /metrics. Which
// families the exposition holds is TestMetricFamiliesDocumented's job
// (against README's table); the smoke only asks for a non-empty one.
func runSmoke(o options) error {
	o.scale = 0.1
	o.walkL, o.walkR = 4, 8
	// Exercise the offline warm pipeline end to end so the smoke fails
	// if the warm-up path unwires.
	if o.warmSummaries == "" {
		o.warmSummaries = "lrw"
	}
	// Always stream in the smoke: the /updates → batch → swap path is
	// part of the verified surface.
	if o.streamBatch <= 0 {
		o.streamBatch = 4
	}
	o.streamMaxAge = 100 * time.Millisecond
	a, err := buildApp(o)
	if err != nil {
		return err
	}
	defer a.closeEngine()
	if err := a.prepare(context.Background()); err != nil {
		return err
	}

	apiLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	opsLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	apiSrv := &http.Server{Handler: a.srv.Handler()}
	opsSrv := &http.Server{Handler: a.opsHandler()}
	defer apiSrv.Close()
	defer opsSrv.Close()
	go func() { _ = apiSrv.Serve(apiLn) }()
	go func() { _ = opsSrv.Serve(opsLn) }()

	api := "http://" + apiLn.Addr().String()
	for _, path := range []string{
		"/search?q=tag000&user=3&k=3",          // cold: misses + builds
		"/search?q=tag000&user=3&k=3",          // warm: cache hits
		"/search?q=tag000&user=3&k=3&lambda=1", // diversified path
	} {
		if err := smokeGet(api + path); err != nil {
			return err
		}
	}
	if err := smokeStream(a, api); err != nil {
		return err
	}

	resp, err := http.Get("http://" + opsLn.Addr().String() + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/metrics = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		return fmt.Errorf("/metrics Content-Type = %q, want text/plain", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if len(body) == 0 {
		return fmt.Errorf("/metrics served an empty exposition")
	}
	log.Printf("smoke ok: %d bytes of metrics on %s", len(body), opsLn.Addr())
	return nil
}

// smokeStream exercises the streaming surface end to end: open an SSE
// subscription and read its initial push, feed an edge batch through
// POST /updates, wait for the engine swap, and confirm the swapped
// engine still answers searches.
func smokeStream(a *app, api string) error {
	subCtx, cancelSub := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelSub()
	subReq, err := http.NewRequestWithContext(subCtx, http.MethodPost, api+"/subscribe?q=tag000&user=3&k=3", nil)
	if err != nil {
		return err
	}
	subResp, err := http.DefaultClient.Do(subReq)
	if err != nil {
		return fmt.Errorf("POST /subscribe: %w", err)
	}
	defer subResp.Body.Close()
	if subResp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /subscribe = %d, want 200", subResp.StatusCode)
	}
	line, err := bufio.NewReader(subResp.Body).ReadString('\n')
	if err != nil {
		return fmt.Errorf("read initial SSE push: %w", err)
	}
	if !strings.HasPrefix(line, "event: topk") {
		return fmt.Errorf("initial SSE line = %q, want event: topk", line)
	}

	body := `{"updates":[{"from":1,"to":2,"weight":0.5},{"from":2,"to":3,"weight":0.4},{"from":3,"to":4,"weight":0.3},{"from":1,"to":2,"weight":0.9}]}`
	upResp, err := http.Post(api+"/updates", "application/json", strings.NewReader(body))
	if err != nil {
		return fmt.Errorf("POST /updates: %w", err)
	}
	io.Copy(io.Discard, upResp.Body) //nolint:errcheck
	upResp.Body.Close()
	if upResp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("POST /updates = %d, want 202", upResp.StatusCode)
	}
	deadline := time.Now().Add(10 * time.Second)
	for a.pipe.Swaps() == 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("no engine swap %v after accepted update batch", 10*time.Second)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// The swapped-in engine must serve exactly like the original.
	return smokeGet(api + "/search?q=tag000&user=3&k=3")
}

func smokeGet(url string) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s = %d, want 200", url, resp.StatusCode)
	}
	return nil
}
