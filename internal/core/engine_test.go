package core

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/topics"
)

// smallWorld builds a modest synthetic dataset once per test binary.
var smallWorld = sync.OnceValues(func() (*graph.Graph, *topics.Space) {
	g, err := dataset.GenerateGraph(dataset.GraphConfig{
		Nodes: 400, MinOutDegree: 2, MaxOutDegree: 6, Seed: 11,
	})
	if err != nil {
		panic(err)
	}
	space, err := dataset.GenerateTopics(g, dataset.TopicConfig{
		Tags: 4, TopicsPerTag: 3, MeanTopicNodes: 15, Locality: 0.7, Seed: 11,
	})
	if err != nil {
		panic(err)
	}
	return g, space
})

// runMany is the batch shape the tests speak: one full-fidelity keyword
// query for many users through RunMany, results only.
func runMany(ctx context.Context, eng *Engine, m Method, query string, users []graph.NodeID, k, workers int) ([][]TopicResult, error) {
	answers, err := RunMany(ctx, eng, Query{Method: m, Text: query, K: k, Fidelity: FidelityFull}, users, workers)
	if err != nil {
		return nil, err
	}
	rows := make([][]TopicResult, len(answers))
	for i, ans := range answers {
		rows[i] = ans.Results
	}
	return rows, nil
}

func builtEngine(t testing.TB) *Engine {
	t.Helper()
	g, space := smallWorld()
	eng, err := New(g, space, Options{WalkL: 4, WalkR: 8, Theta: 0.02, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.BuildIndexes(context.Background()); err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestNewValidation(t *testing.T) {
	g, space := smallWorld()
	if _, err := New(nil, space, Options{}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := New(g, nil, Options{}); err == nil {
		t.Error("nil space accepted")
	}
	// A zero field runs at its default; any other out-of-range θ, L or R
	// is refused by its field name, never replaced by the default.
	nan := math.NaN()
	for _, c := range []struct {
		opts  Options
		field string
	}{
		{Options{Theta: 1.5, WalkL: -1}, "Theta:"},
		{Options{Theta: 1}, "Theta:"},
		{Options{Theta: -0.1}, "Theta:"},
		{Options{Theta: nan}, "Theta:"},
		{Options{WalkL: -1}, "WalkL:"},
		{Options{WalkR: -16}, "WalkR:"},
	} {
		if _, err := New(g, space, c.opts); !errors.Is(err, ErrInvalidArgument) || !strings.Contains(err.Error(), c.field) {
			t.Errorf("New(%+v) = %v, want ErrInvalidArgument naming %s", c.opts, err, c.field)
		}
	}
	eng, err := New(g, space, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if o := eng.Options(); o.Theta != 0.01 || o.WalkL != 6 || o.WalkR != 16 {
		t.Errorf("zero Options filled to θ %v, L %d, R %d; want 0.01, 6, 16", o.Theta, o.WalkL, o.WalkR)
	}
}

func TestSearchBeforeBuildFails(t *testing.T) {
	g, space := smallWorld()
	eng, err := New(g, space, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Search(context.Background(), MethodLRW, "tag000", 1, 5); err == nil {
		t.Error("search before BuildIndexes accepted")
	}
	if _, err := eng.Summarize(context.Background(), MethodLRW, 0); err == nil {
		t.Error("summarize before BuildIndexes accepted")
	}
}

func TestBuildIndexesIdempotent(t *testing.T) {
	eng := builtEngine(t)
	walks := eng.Walks()
	if err := eng.BuildIndexes(context.Background()); err != nil {
		t.Fatal(err)
	}
	if eng.Walks() != walks {
		t.Error("second BuildIndexes rebuilt the walk index")
	}
	if eng.Prop() == nil {
		t.Error("propagation index missing")
	}
}

func TestMethodString(t *testing.T) {
	if MethodLRW.String() != "LRW-A" || MethodRCL.String() != "RCL-A" {
		t.Errorf("method names: %v %v", MethodLRW, MethodRCL)
	}
	if !strings.HasPrefix(Method(9).String(), "Method(") {
		t.Errorf("unknown method string: %v", Method(9))
	}
}

func TestParseMethod(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Method
		ok   bool
	}{
		{"lrw", MethodLRW, true},
		{"rcl", MethodRCL, true},
		{"", 0, false},
		{"LRW", 0, false},
		{"all", 0, false},
		{"lrw,rcl", 0, false},
	} {
		got, err := ParseMethod(tc.name)
		switch {
		case tc.ok && (err != nil || got != tc.want):
			t.Errorf("ParseMethod(%q) = %v, %v; want %v", tc.name, got, err, tc.want)
		case !tc.ok && (err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", tc.name))):
			t.Errorf("ParseMethod(%q) = %v, %v; want an error naming %q", tc.name, got, err, tc.name)
		}
	}
}

// TestRegisterFlags: the bound defaults are what a zero Options runs at
// (seed 1), and CheckFlags refuses each out-of-range value by its flag.
func TestRegisterFlags(t *testing.T) {
	var o Options
	fs := flag.NewFlagSet("core", flag.ContinueOnError)
	o.RegisterFlags(fs)
	want := Options{Seed: 1}
	if err := want.fill(); err != nil {
		t.Fatal(err)
	}
	want.RCL.Seed = 0 // New derives it from the bound -seed
	if !reflect.DeepEqual(o, want) {
		t.Errorf("bound defaults %+v, want the filled zero Options %+v", o, want)
	}
	if err := o.CheckFlags(); err != nil {
		t.Errorf("defaults refused: %v", err)
	}
	for _, args := range [][]string{{"-theta", "1.5"}, {"-theta", "1"}, {"-theta", "0"}, {"-theta", "NaN"}, {"-L", "0"}, {"-R", "-1"}} {
		var o Options
		fs := flag.NewFlagSet("core", flag.ContinueOnError)
		o.RegisterFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		if err := o.CheckFlags(); err == nil || !strings.HasPrefix(err.Error(), args[0]+":") {
			t.Errorf("CheckFlags after %v = %v, want an error naming %s", args, err, args[0])
		}
	}
}

func TestSummarizeBothMethodsAndCache(t *testing.T) {
	eng := builtEngine(t)
	for _, m := range []Method{MethodLRW, MethodRCL} {
		s1, err := eng.Summarize(context.Background(), m, 0)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if err := s1.Validate(); err != nil {
			t.Fatalf("%v summary invalid: %v", m, err)
		}
		if s1.Len() == 0 {
			t.Fatalf("%v produced empty summary", m)
		}
		s2, err := eng.Summarize(context.Background(), m, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(s1.Reps) != len(s2.Reps) {
			t.Fatalf("%v cache returned different summary", m)
		}
		for i := range s1.Reps {
			if s1.Reps[i] != s2.Reps[i] {
				t.Fatalf("%v cache mismatch at rep %d", m, i)
			}
		}
	}
}

func TestSummarizeErrors(t *testing.T) {
	eng := builtEngine(t)
	if _, err := eng.Summarize(context.Background(), MethodLRW, 999); err == nil {
		t.Error("unknown topic accepted")
	}
	if _, err := eng.Summarize(context.Background(), Method(42), 0); err == nil {
		t.Error("unknown method accepted")
	}
	// A key outside the slot table reads as a miss, never a panic.
	for _, k := range []cacheKey{{Method(7), 0}, {MethodLRW, -1}, {MethodLRW, topics.TopicID(eng.Space().NumTopics())}} {
		if _, ok := eng.CachedSummary(k.m, k.t); ok {
			t.Errorf("CachedSummary(%v, %d) hit", k.m, k.t)
		}
	}
}

func TestSearchEndToEnd(t *testing.T) {
	eng := builtEngine(t)
	g := eng.Graph()
	var user graph.NodeID = -1
	for v := 0; v < g.NumNodes(); v++ {
		if g.InDegree(graph.NodeID(v)) > 2 {
			user = graph.NodeID(v)
			break
		}
	}
	if user < 0 {
		t.Fatal("no suitable query user")
	}
	for _, m := range []Method{MethodLRW, MethodRCL} {
		res, err := eng.Search(context.Background(), m, "tag000", user, 2)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if len(res) == 0 || len(res) > 2 {
			t.Fatalf("%v returned %d results", m, len(res))
		}
		for i, r := range res {
			if r.Topic.Tag != "tag000" {
				t.Errorf("%v result %d has tag %q", m, i, r.Topic.Tag)
			}
			if i > 0 && res[i-1].Score < r.Score {
				t.Errorf("%v results not sorted", m)
			}
		}
	}
}

func TestSearchUnknownQuery(t *testing.T) {
	eng := builtEngine(t)
	res, err := eng.Search(context.Background(), MethodLRW, "definitely-not-a-tag", 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res != nil {
		t.Errorf("unknown query returned %v", res)
	}
}

func TestSearchTopicsExplicit(t *testing.T) {
	eng := builtEngine(t)
	related := eng.Space().Related("tag001")
	if len(related) == 0 {
		t.Fatal("no related topics")
	}
	res, err := eng.SearchTopics(context.Background(), MethodLRW, related, 5, len(related))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(related) {
		t.Fatalf("got %d results, want %d", len(res), len(related))
	}
}

func TestMaterializeAll(t *testing.T) {
	eng := builtEngine(t)
	if err := eng.MaterializeAll(context.Background(), MethodLRW); err != nil {
		t.Fatal(err)
	}
	// After materialization, every topic summary comes from cache.
	for ti := 0; ti < eng.Space().NumTopics(); ti++ {
		s, err := eng.Summarize(context.Background(), MethodLRW, topics.TopicID(ti))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("topic %d: %v", ti, err)
		}
	}
}

func TestConcurrentSearches(t *testing.T) {
	eng := builtEngine(t)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m := MethodLRW
			if i%2 == 0 {
				m = MethodRCL
			}
			if _, err := eng.Search(context.Background(), m, dataset.TagName(i%4), graph.NodeID(i*7%eng.Graph().NumNodes()), 3); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func BenchmarkSearchLRW(b *testing.B) {
	eng := builtEngine(b)
	if err := eng.MaterializeAll(context.Background(), MethodLRW); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Search(context.Background(), MethodLRW, "tag000", graph.NodeID(i%eng.Graph().NumNodes()), 3); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRunManyMatchesRun(t *testing.T) {
	eng := builtEngine(t)
	users := []graph.NodeID{1, 5, 9, 13, 44, 101}
	batch, err := runMany(context.Background(), eng, MethodLRW, "tag001", users, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(users) {
		t.Fatalf("batch size %d, want %d", len(batch), len(users))
	}
	for i, u := range users {
		single, err := eng.Search(context.Background(), MethodLRW, "tag001", u, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(single) != len(batch[i]) {
			t.Fatalf("user %d: batch %d results vs single %d", u, len(batch[i]), len(single))
		}
		for j := range single {
			if single[j] != batch[i][j] {
				t.Errorf("user %d result %d differs: %+v vs %+v", u, j, batch[i][j], single[j])
			}
		}
	}
}

func TestRunManyEdgeCases(t *testing.T) {
	eng := builtEngine(t)
	// unknown query: nil rows, no error
	batch, err := runMany(context.Background(), eng, MethodLRW, "zzz", []graph.NodeID{1, 2}, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range batch {
		if row != nil {
			t.Errorf("row %d = %v, want nil", i, row)
		}
	}
	// empty users
	if batch, err := runMany(context.Background(), eng, MethodLRW, "tag000", nil, 3, 2); err != nil || len(batch) != 0 {
		t.Errorf("empty users: %v, %v", batch, err)
	}
	// invalid user inside the batch surfaces the error
	if _, err := runMany(context.Background(), eng, MethodLRW, "tag000", []graph.NodeID{1, -5}, 3, 2); err == nil {
		t.Error("invalid user accepted in batch")
	}
	// before build
	g, space := smallWorld()
	fresh, _ := New(g, space, Options{})
	if _, err := runMany(context.Background(), fresh, MethodLRW, "tag000", []graph.NodeID{1}, 1, 1); err == nil {
		t.Error("RunMany before BuildIndexes accepted")
	}
}

// TestEngineDeterministicAcrossInstances: two engines built from the same
// inputs and seed must answer every query identically — the property that
// makes experiments and stored indexes reproducible.
func TestEngineDeterministicAcrossInstances(t *testing.T) {
	g, space := smallWorld()
	build := func() *Engine {
		eng, err := New(g, space, Options{WalkL: 4, WalkR: 8, Theta: 0.02, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.BuildIndexes(context.Background()); err != nil {
			t.Fatal(err)
		}
		return eng
	}
	a, b := build(), build()
	for _, m := range []Method{MethodLRW, MethodRCL} {
		for user := graph.NodeID(0); user < 40; user++ {
			ra, err := a.Search(context.Background(), m, "tag002", user, 3)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := b.Search(context.Background(), m, "tag002", user, 3)
			if err != nil {
				t.Fatal(err)
			}
			if len(ra) != len(rb) {
				t.Fatalf("%v user %d: %d vs %d results", m, user, len(ra), len(rb))
			}
			for i := range ra {
				if ra[i] != rb[i] {
					t.Fatalf("%v user %d result %d: %+v vs %+v", m, user, i, ra[i], rb[i])
				}
			}
		}
	}
}

func TestBuildIndexesCanceledContext(t *testing.T) {
	g, space := smallWorld()
	eng, err := New(g, space, Options{WalkL: 4, WalkR: 8, Theta: 0.02, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := eng.BuildIndexes(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if eng.Ready() {
		t.Fatal("engine must not be ready after an aborted build")
	}
	// A second attempt with a live context succeeds: the abort left no
	// partial state behind.
	if err := eng.BuildIndexes(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// swapOneEdge returns g with its first edge dropped and an edge it lacks
// added.
func swapOneEdge(g *graph.Graph) *graph.Graph {
	b := graph.NewBuilder(g.NumNodes())
	for _, e := range g.Edges()[1:] {
		b.MustAddEdge(e.From, e.To, e.Weight)
	}
	var from, to graph.NodeID = 0, 1
	for g.HasEdge(from, to) {
		to++
	}
	b.MustAddEdge(from, to, 0.5)
	return b.Build()
}

// PatchIndexes stands a fresh engine up from the engine it replaces: the
// same indexes a build gives, one index-duration observation, and a
// refusal — not a panic — when there is nothing to patch from.
func TestPatchIndexes(t *testing.T) {
	ctx := context.Background()
	old := builtEngine(t)
	defer old.Close()
	g := old.Graph()
	next := swapOneEdge(g)

	opts := old.Options()
	opts.Metrics = obs.NewRegistry()
	fresh, err := New(next, old.Space(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if _, err := fresh.PatchIndexes(ctx, nil); err == nil {
		t.Error("PatchIndexes(nil) succeeded")
	}
	unbuilt, err := New(g, old.Space(), old.Options())
	if err != nil {
		t.Fatal(err)
	}
	defer unbuilt.Close()
	if _, err := fresh.PatchIndexes(ctx, unbuilt); !errors.Is(err, ErrNotReady) {
		t.Errorf("PatchIndexes from an engine without indexes returned %v, want ErrNotReady", err)
	}
	stats, err := fresh.PatchIndexes(ctx, old)
	if err != nil {
		t.Fatal(err)
	}
	n := next.NumNodes()
	if stats.Walks.Rebuilt || stats.Prop.Rebuilt || stats.Walks.Resampled <= 0 || stats.Walks.Resampled >= n || stats.Prop.PatchedRows <= 0 || stats.Prop.PatchedRows >= n {
		t.Errorf("two changed edges gave %+v on %d nodes; want a partial patch of both indexes", stats, n)
	}
	if !fresh.Ready() || fresh.met.indexDur.Count() != 1 {
		t.Errorf("ready %v with %d index-duration observations, want true and 1", fresh.Ready(), fresh.met.indexDur.Count())
	}
	ref, err := New(next, old.Space(), old.Options())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if err := ref.BuildIndexes(ctx); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh.Walks(), ref.Walks()) || !reflect.DeepEqual(fresh.Prop(), ref.Prop()) {
		t.Error("patched indexes differ from built ones")
	}
}

// cancelAfter is a context that cancels itself on its checks-th Err call:
// a patch that has already passed some of its cancellation checks sees
// the cancel at a later one, in whichever of the two patches makes it.
type cancelAfter struct {
	context.Context
	cancel context.CancelFunc
	left   atomic.Int32
}

func (c *cancelAfter) Err() error {
	if c.left.Add(-1) < 0 {
		c.cancel()
	}
	return c.Context.Err()
}

// cancelIn is a context that cancels itself at the first Err call made
// from the function whose name ends in fn: a cancel that lands inside one
// chosen loop of the two concurrent patches, wherever the rest of them is.
type cancelIn struct {
	context.Context
	cancel context.CancelFunc
	fn     string
	hit    atomic.Bool
}

func (c *cancelIn) Err() error {
	if pc, _, _, ok := runtime.Caller(1); ok && strings.HasSuffix(runtime.FuncForPC(pc).Name(), c.fn) {
		c.hit.Store(true)
		c.cancel()
	}
	return c.Context.Err()
}

// lateCheck is the innermost context of a patch. Once returned is set —
// PatchIndexes has returned — an Err call from a randwalk or propidx
// frame can only come from a worker the patch did not join before
// returning; the first such frame is kept in late.
type lateCheck struct {
	context.Context
	returned atomic.Bool
	late     atomic.Pointer[string]
}

func (l *lateCheck) Err() error {
	if l.returned.Load() {
		pcs := make([]uintptr, 32)
		frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs)])
		for f, more := frames.Next(); ; f, more = frames.Next() {
			if strings.Contains(f.Function, "internal/randwalk.") || strings.Contains(f.Function, "internal/propidx.") {
				l.late.CompareAndSwap(nil, &f.Function)
				break
			}
			if !more {
				break
			}
		}
	}
	return l.Context.Err()
}

// A canceled PatchIndexes — before it starts, part way through the two
// concurrent patches, or inside the walk scan, the walk re-sampling or a
// worker of the Γ enumeration — reports context.Canceled, publishes
// nothing, leaves the engine it patches from serving, has joined every
// goroutine it started by the time it returns, and the same engine can
// still be patched once the context is live.
func TestPatchIndexesCanceledContext(t *testing.T) {
	old := builtEngine(t)
	defer old.Close()
	next := swapOneEdge(old.Graph())
	type attempt struct {
		name string
		ctx  context.Context
		base *lateCheck
		seen func() bool // the patch reached the cancel
	}
	var attempts []attempt
	for _, checks := range []int32{0, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		base := &lateCheck{Context: ctx}
		c := &cancelAfter{Context: base, cancel: cancel}
		c.left.Store(checks)
		if checks == 0 {
			cancel() // canceled before the patch starts
		}
		attempts = append(attempts, attempt{fmt.Sprintf("cancel at check %d", checks), c, base, func() bool { return c.left.Load() < 0 }})
	}
	for _, fn := range []string{"randwalk.(*Index).touching", "randwalk.(*Index).resample", "propidx.enumerateChunks"} {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		base := &lateCheck{Context: ctx}
		c := &cancelIn{Context: base, cancel: cancel, fn: fn}
		attempts = append(attempts, attempt{"cancel inside " + fn, c, base, c.hit.Load})
	}
	for _, a := range attempts {
		fresh, err := New(next, old.Space(), old.Options())
		if err != nil {
			t.Fatal(err)
		}
		before := runtime.NumGoroutine()
		_, err = fresh.PatchIndexes(a.ctx, old)
		a.base.returned.Store(true)
		// A worker that has marked its WaitGroup done may still be on its
		// way out when the wait returns, so the count gets a second to
		// settle; one that was never waited for shows in late meanwhile,
		// at its next cancellation check.
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(time.Second); n > before && time.Now().Before(deadline); n = runtime.NumGoroutine() {
			time.Sleep(time.Millisecond)
		}
		if n > before {
			t.Errorf("%s: %d goroutines before the patch, %d after it returned", a.name, before, n)
		}
		if fn := a.base.late.Load(); fn != nil {
			t.Errorf("%s: %s checked the context after PatchIndexes returned; the patch did not join it", a.name, *fn)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: PatchIndexes returned %v, want context.Canceled", a.name, err)
		}
		if !a.seen() {
			t.Fatalf("%s: the patch never reached the cancel", a.name)
		}
		if fresh.Ready() {
			t.Errorf("%s: the patched engine is ready", a.name)
		}
		if _, err := old.Search(context.Background(), MethodLRW, dataset.TagName(0), 1, 3); err != nil || !old.Ready() {
			t.Errorf("%s: the old engine stopped serving: ready %v, search %v", a.name, old.Ready(), err)
		}
		if _, err := fresh.PatchIndexes(context.Background(), old); err != nil || !fresh.Ready() {
			t.Errorf("%s: a second patch with a live context: ready %v, err %v", a.name, fresh.Ready(), err)
		}
		fresh.Close()
	}
}
