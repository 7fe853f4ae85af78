package stream

// A batch is applied to the deployment, not to a shard: the tests here
// run one pipeline over two shard engines and pin what a per-shard
// pipeline could not promise — one clock reading, one published
// generation, counters that cover every shard, no partial publish, and
// the same indexes on every shard after every batch.

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/summary"
	"repro/internal/topics"
)

// testSet stands up a warm 2-shard deployment over testEngine's dataset:
// shard 0 built the indexes, shard 1 shares them, and each shard caches
// the LRW summaries of the topics with its parity — a stand-in for the
// partitioner that keeps this package free of internal/shard.
func testSet(t testing.TB, nodes int, seed int64) []*core.Engine {
	t.Helper()
	ctx := context.Background()
	warm := testEngine(t, nodes, seed)
	defer warm.Close()
	engines := make([]*core.Engine, 2)
	for i := range engines {
		eng, err := core.New(warm.Graph(), warm.Space(), warm.Options())
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.ShareIndexes(warm); err != nil {
			t.Fatal(err)
		}
		for ti := i; ti < warm.Space().NumTopics(); ti += len(engines) {
			if _, err := eng.Summarize(ctx, core.MethodLRW, topics.TopicID(ti)); err != nil {
				t.Fatal(err)
			}
		}
		engines[i] = eng
	}
	return engines
}

// closeSet stops the pipeline and closes whatever it serves now.
func closeSet(p *Pipeline) {
	p.Stop()
	p.Current().Close()
}

// With decay on and a clock that moves between any two readings, one
// event still lands with one weight: every shard serves the same
// applied graph, so no two shards can disagree on an edge by a bit.
func TestSetDecaysOnce(t *testing.T) {
	var ticks atomic.Int64
	p, err := NewSet(testSet(t, 100, 5), Config{
		BatchSize:     1 << 20,
		DecayHalfLife: time.Minute,
		Clock:         func() time.Time { return time.Unix(1000+7*ticks.Add(1), 0) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeSet(p)
	events := []Event{{From: 1, To: 2, Weight: 0.8}, {From: 2, To: 3, Weight: 0.6}}
	if err := p.Submit(events...); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	base := p.Current().Graph()
	for _, ev := range events {
		want, ok := base.EdgeWeight(ev.From, ev.To)
		if !ok || want >= ev.Weight {
			t.Fatalf("shard 0: edge %d→%d = (%v, %v), want a decayed weight below %v", ev.From, ev.To, want, ok, ev.Weight)
		}
		for i, eng := range p.Current().Engines {
			if got, _ := eng.Graph().EdgeWeight(ev.From, ev.To); got != want {
				t.Errorf("shard %d applied %d→%d at weight %v, shard 0 at %v", i, ev.From, ev.To, got, want)
			}
		}
	}
}

// OnApply fires once per batch and only after the generation's pointer
// store: a standing query re-evaluated from the hook scatters over one
// generation. Swaps() has moved by then, and not before.
func TestSetOnApplySeesEveryShardSwapped(t *testing.T) {
	engines := testSet(t, 100, 9)
	nodes := engines[0].Graph().NumNodes()
	var (
		p     *Pipeline
		calls int
	)
	p, err := NewSet(engines, Config{
		BatchSize: 1 << 20,
		OnApply: func(_ context.Context, r ApplyResult) {
			calls++
			if r.Seq != 1 || p.Swaps() != 1 {
				t.Errorf("in OnApply: seq %d, swaps %d; want 1, 1", r.Seq, p.Swaps())
			}
			for i, eng := range p.Current().Engines {
				g := eng.Graph()
				if w, ok := g.EdgeWeight(1, graph.NodeID(nodes)); g.NumNodes() != nodes+1 || !ok || w != 0.5 {
					t.Errorf("in OnApply shard %d still serves the old graph (%d nodes, grown edge %v/%v)", i, g.NumNodes(), w, ok)
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeSet(p)
	if err := p.GrowNodes(1); err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(Event{From: 1, To: graph.NodeID(nodes), Weight: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("OnApply ran %d times for one batch, want 1", calls)
	}
	// One applied graph, not N equal copies, and — while every shard
	// still builds its own indexes — equal walks and Γ rows over it.
	a, b := p.Current().Engines[0], p.Current().Engines[1]
	if a.Graph() != b.Graph() {
		t.Fatal("the shards serve two graph copies of one batch")
	}
	for v := graph.NodeID(0); int(v) <= nodes; v++ {
		as, ap, apot := a.Prop().Gamma(v)
		bs, bp, bpot := b.Prop().Gamma(v)
		if !slices.Equal(as, bs) || !slices.Equal(ap, bp) || !slices.Equal(apot, bpot) {
			t.Fatalf("Γ(%d) differs between the shards", v)
		}
		for i := 0; i < a.Walks().R; i++ {
			if !slices.Equal(a.Walks().Walk(i, v), b.Walks().Walk(i, v)) {
				t.Fatalf("walk %d from node %d differs between the shards", i, v)
			}
		}
	}
}

// Every shard patches its own copy of the indexes, yet a query runs one
// search session on shard 0's Γ over every shard's summaries: that is
// exact only while each shard's walks and Γ equal shard 0's bit for bit.
// Pin it after every batch — edge-only batches (index patches) and one
// that grows a node (a full build).
func TestSetShardIndexesIdentical(t *testing.T) {
	engines := testSet(t, 150, 13)
	p, err := NewSet(engines, Config{BatchSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer closeSet(p)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(13))
	nodes := engines[0].Graph().NumNodes()
	for flush := 1; flush <= 5; flush++ {
		if flush == 3 {
			if err := p.GrowNodes(1); err != nil {
				t.Fatal(err)
			}
			if err := p.Submit(Event{From: 2, To: graph.NodeID(nodes), Weight: 0.4}); err != nil {
				t.Fatal(err)
			}
			nodes++
		}
		for i := 0; i < 6; i++ {
			from, to := rng.Intn(nodes), rng.Intn(nodes)
			if from == to {
				continue
			}
			if err := p.Submit(Event{From: graph.NodeID(from), To: graph.NodeID(to), Weight: 0.1 + 0.8*rng.Float64()}); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		gen := p.Current()
		if gen.ID != uint64(flush) {
			t.Fatalf("flush %d published generation %d", flush, gen.ID)
		}
		l0, r0, n0, w0, h0, ro0, rs0 := gen.Engines[0].Walks().Raw()
		th0, off0, src0, prop0, pot0 := gen.Engines[0].Prop().Raw()
		for i, eng := range gen.Engines[1:] {
			l, r, n, w, h, ro, rs := eng.Walks().Raw()
			if l != l0 || r != r0 || n != n0 || !slices.Equal(w, w0) || !slices.EqualFunc(h, h0, sameBits) ||
				!slices.Equal(ro, ro0) || !slices.Equal(rs, rs0) {
				t.Fatalf("flush %d: shard %d's walk index differs from shard 0's", flush, i+1)
			}
			th, off, src, prop, pot := eng.Prop().Raw()
			if math.Float64bits(th) != math.Float64bits(th0) || !slices.Equal(off, off0) || !slices.Equal(src, src0) ||
				!sameBits(prop, prop0) || !slices.Equal(pot, pot0) {
				t.Fatalf("flush %d: shard %d's Γ differs from shard 0's", flush, i+1)
			}
		}
	}
}

// sameBits reports whether two float rows are equal bit for bit.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// pit_stream_carried_summaries_total counts the deployment's carried
// summaries — every shard's — and affected counts the one affected set.
func TestSetCountsCarriedOnEveryShard(t *testing.T) {
	reg := obs.NewRegistry()
	engines := testSet(t, 10000, 7) // big enough that the radius-L blast region spares topics on both shards
	total := engines[0].Space().NumTopics()
	p, err := NewSet(engines, Config{BatchSize: 1 << 20, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer closeSet(p)
	if err := p.Submit(Event{From: 1, To: 2, Weight: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	sum := 0
	for i, eng := range p.Current().Engines {
		n := eng.CachedSummaries(core.MethodLRW) // nothing has queried the fresh engines: exactly the carried ones
		if n == 0 {
			t.Fatalf("shard %d carried nothing; the sum below would prove nothing", i)
		}
		sum += n
	}
	carried := reg.CounterVec("pit_stream_carried_summaries_total", "", "method").With("lrw").Value()
	affected := reg.Counter("pit_stream_affected_topics_total", "").Value()
	if int(carried) != sum {
		t.Errorf("pit_stream_carried_summaries_total = %d, the shards carried %d", carried, sum)
	}
	if int(carried+affected) != total {
		t.Errorf("carried %d + affected %d != %d topics on a fully warm deployment", carried, affected, total)
	}
	if swaps := reg.Counter("pit_stream_engine_swaps_total", "").Value(); swaps != 1 {
		t.Errorf("pit_stream_engine_swaps_total = %d after one batch on 2 shards, want 1", swaps)
	}
}

// A swap changes the graph, not the health of the summarizer: every
// fresh shard engine takes over its predecessor's build breaker, tripped
// and with its backoff, and pit_breaker_state keeps saying so. A fresh
// breaker per swap would re-probe a failing kernel Threshold times per
// flush per shard, and its cooldown would never grow.
func TestSwapKeepsTrippedBreaker(t *testing.T) {
	ctx := context.Background()
	reg := obs.NewRegistry()
	warm := testEngine(t, 100, 3)
	defer warm.Close()
	opts := warm.Options()
	opts.Metrics = reg
	opts.Breaker = plan.BreakerConfig{Threshold: 2, Cooldown: time.Minute}
	broken := chaos.SummarizeFunc(func(context.Context, topics.TopicID) (summary.Summary, error) {
		return summary.Summary{}, errors.New("kernel down")
	})
	engines := make([]*core.Engine, 2)
	for i := range engines {
		eng, err := core.New(warm.Graph(), warm.Space(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.ShareIndexes(warm); err != nil {
			t.Fatal(err)
		}
		eng.SetSummarizer(core.MethodLRW, broken)
		for ti := range opts.Breaker.Threshold {
			if _, err := eng.Summarize(ctx, core.MethodLRW, topics.TopicID(ti)); err == nil {
				t.Fatal("a broken summarizer built a summary")
			}
		}
		if got := eng.BreakerState(core.MethodLRW); got != plan.Open {
			t.Fatalf("shard %d breaker after %d failures = %v, want open", i, opts.Breaker.Threshold, got)
		}
		engines[i] = eng
	}
	p, err := NewSet(engines, Config{BatchSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer closeSet(p)
	if err := p.Submit(Event{From: 1, To: 2, Weight: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	for i, eng := range p.Current().Engines {
		if eng == engines[i] {
			t.Fatalf("shard %d was not swapped", i)
		}
		if got := eng.BreakerState(core.MethodLRW); got != plan.Open {
			t.Errorf("shard %d breaker after the swap = %v, want open", i, got)
		}
	}
	if got := reg.GaugeVec("pit_breaker_state", "", "method").With("lrw").Value(); got != int64(plan.Open) {
		t.Errorf(`pit_breaker_state{method="lrw"} = %d after the swap, want %d (open)`, got, plan.Open)
	}
}

// cancelAfter is a context that cancels itself on its n-th Err() poll —
// the index builders poll it, so the cancellation lands mid-rebuild.
type cancelAfter struct {
	context.Context
	cancel context.CancelFunc
	polls  atomic.Int64
	n      int64
}

func (c *cancelAfter) Err() error {
	if c.polls.Add(1) == c.n {
		c.cancel()
	}
	return c.Context.Err()
}

// A flush canceled after one shard's worth of rebuild work publishes on
// no shard: the generation still holds every old engine, Swaps() and the
// swap counter stay put, the failure counts once, the fresh engines are
// closed, and the next flush applies cleanly to the same generation.
func TestSetFlushIsAllOrNothing(t *testing.T) {
	before := runtime.NumGoroutine()
	reg := obs.NewRegistry()
	engines := testSet(t, 2000, 11) // a few dozen context polls per rebuild
	p, err := NewSet(engines, Config{BatchSize: 1 << 20, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}

	// How many polls one shard's rebuild makes, measured on a first,
	// successful flush; 1.5× that is past one rebuild and short of two.
	probe := &cancelAfter{Context: context.Background(), cancel: func() {}}
	if err := p.Submit(Event{From: 1, To: 2, Weight: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(probe); err != nil {
		t.Fatal(err)
	}
	perShard := probe.polls.Load() / int64(len(engines))
	if perShard < 2 {
		t.Fatalf("a rebuild polled its context %d times; cannot cancel inside one", perShard)
	}
	served := make([]*core.Engine, len(engines))
	for i, eng := range p.Current().Engines {
		served[i] = eng
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const lost = 0.321 // a weight no generated edge has
	if err := p.Submit(Event{From: 2, To: 3, Weight: lost}); err != nil {
		t.Fatal(err)
	}
	err = p.Flush(&cancelAfter{Context: ctx, cancel: cancel, n: perShard + perShard/2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled flush returned %v, want context.Canceled", err)
	}
	for i, eng := range p.Current().Engines {
		if eng != served[i] {
			t.Errorf("shard %d published an engine from the canceled flush", i)
		}
		if w, _ := eng.Graph().EdgeWeight(2, 3); w == lost {
			t.Errorf("shard %d serves the canceled batch", i)
		}
	}
	if p.Swaps() != 1 || reg.Counter("pit_stream_engine_swaps_total", "").Value() != 1 {
		t.Errorf("swaps = %d (counter %d) after a canceled flush, want 1", p.Swaps(), reg.Counter("pit_stream_engine_swaps_total", "").Value())
	}
	if n := reg.Counter("pit_stream_apply_failures_total", "").Value(); n != 1 {
		t.Errorf("pit_stream_apply_failures_total = %d for one failed batch on 2 shards, want 1", n)
	}

	// The old generation is whole: the next batch applies on top of it.
	if err := p.Submit(Event{From: 3, To: 4, Weight: 0.654}); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i, eng := range p.Current().Engines {
		g := eng.Graph()
		first, _ := g.EdgeWeight(1, 2)
		dropped, _ := g.EdgeWeight(2, 3)
		last, _ := g.EdgeWeight(3, 4)
		if first != 0.5 || dropped == lost || last != 0.654 {
			t.Errorf("shard %d after the recovery flush: 1→2 %v, 2→3 %v, 3→4 %v; want 0.5, not %v, 0.654", i, first, dropped, last, lost)
		}
	}

	closeSet(p)
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Errorf("goroutines = %d after the canceled flush, started with %d", n, before)
	}
}
