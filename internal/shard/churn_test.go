package shard_test

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/summary"
	"repro/internal/topics"

	"math/rand"
)

// TestRouterChurnSwapAndFaults drives the router at full load while
// every shard's engine is swapped underneath it by a stream refresh and
// shard 2's summarizer is fault-injected — the fault follows the shard
// across swaps through PrepareEngine — round after round. Required
// invariants: not one untargeted query fails (swap races retry, the
// faulted shard degrades alone), at least one targeted query observably
// degrades without erroring, and no goroutines leak once the churn
// stops. Runs under -race via `make chaos`.
func TestRouterChurnSwapAndFaults(t *testing.T) {
	g, space := world()
	opts := worldOptions()
	ctx := context.Background()

	const n = 3
	engines, err := shard.BuildEngines(ctx, g, space, opts, n)
	if err != nil {
		t.Fatal(err)
	}
	part, err := shard.NewPartitioner(space, n)
	if err != nil {
		t.Fatal(err)
	}

	// Fault target: shard 2's slice of tag004. Queries for other tags
	// are "untargeted" — they may touch shard 2, but only through its
	// healthy cached summaries.
	const faultShard = 2
	targeted := map[topics.TopicID]bool{}
	for _, id := range part.Owned(faultShard) {
		if space.Topic(id).Tag == dataset.TagName(4) {
			targeted[id] = true
		}
	}
	if len(targeted) == 0 {
		t.Fatalf("no tag004 topics on shard %d; pick another tag", faultShard)
	}

	var cs *chaos.Summarizer // set below, before the first flush
	set, err := stream.NewSet(engines, stream.Config{
		BatchSize: 1 << 20,
		PrepareEngine: func(shard int, e *core.Engine) {
			if shard == faultShard {
				e.SetSummarizer(core.MethodLRW, cs)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := shard.New(part, set.Current, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	warmFrom := runtime.NumGoroutine()
	if err := r.WarmOwned(ctx, core.MethodLRW, core.WarmOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	goroutinesSettle(t, "WarmOwned", warmFrom)

	// Replay-backed chaos wrapper: untargeted rebuilds stay correct,
	// targeted rebuilds always fail.
	real := make(map[topics.TopicID]summary.Summary, space.NumTopics())
	for id := range targeted {
		s, err := engines[faultShard].Summarize(ctx, core.MethodLRW, id)
		if err != nil {
			t.Fatal(err)
		}
		real[id] = s
	}
	inner := chaos.SummarizeFunc(func(_ context.Context, id topics.TopicID) (summary.Summary, error) {
		return real[id], nil
	})
	cs = chaos.Wrap(inner, chaos.Config{
		Seed:     17,
		FailRate: 1.0,
		Target:   func(id topics.TopicID) bool { return targeted[id] },
	})
	engines[faultShard].SetSummarizer(core.MethodLRW, cs)

	base := runtime.NumGoroutine()

	var (
		stop            = make(chan struct{})
		wg              sync.WaitGroup
		untargetedFails atomic.Int64
		untargetedOK    atomic.Int64
		degradedSeen    atomic.Int64
		firstFail       atomic.Value
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				user := graph.NodeID(rng.Intn(g.NumNodes()))
				query := dataset.TagName(rng.Intn(4)) // tags 0–3: untargeted
				if _, err := r.Run(ctx, core.Query{Text: query, User: user, K: 3}); err != nil {
					untargetedFails.Add(1)
					firstFail.CompareAndSwap(nil, err)
					return
				}
				untargetedOK.Add(1)
			}
		}(w)
	}

	// Churn loop: swap the whole set via a stream refresh every round
	// while poking the fault path on shard 2 with a targeted query.
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 6; round++ {
		from := graph.NodeID(rng.Intn(g.NumNodes()))
		to := graph.NodeID(rng.Intn(g.NumNodes()))
		if to == from {
			to = (to + 1) % graph.NodeID(g.NumNodes())
		}
		if err := set.Submit(stream.Event{From: from, To: to, Weight: 0.2 + 0.6*rng.Float64()}); err != nil {
			t.Fatal(err)
		}
		if err := set.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		// Invalidate one targeted summary on the faulted shard so the
		// next tag004 query must rebuild it — and hit the fault.
		for id := range targeted {
			r.Engine(faultShard).InvalidateTopic(id)
			break
		}
		user := graph.NodeID(rng.Intn(g.NumNodes()))
		ans, err := r.Run(ctx, core.Query{Text: dataset.TagName(4), User: user, K: 3})
		if err != nil {
			t.Fatalf("round %d: targeted query errored instead of degrading: %v", round, err)
		}
		if ans.Outcome.Tier == core.TierMaterialized {
			degradedSeen.Add(1)
		}
	}
	close(stop)
	wg.Wait()

	if fails := untargetedFails.Load(); fails != 0 {
		t.Fatalf("%d untargeted queries failed (first: %v)", fails, firstFail.Load())
	}
	if ok := untargetedOK.Load(); ok == 0 {
		t.Fatal("load generator issued no queries — the test proved nothing")
	}
	if degradedSeen.Load() == 0 {
		t.Fatal("no targeted query degraded: the fault never engaged")
	}
	if st := cs.Stats(); st.Failures == 0 {
		t.Fatalf("chaos wrapper injected nothing: %+v", st)
	}
	if swaps := set.Swaps(); swaps == 0 {
		t.Fatal("the set never swapped engines")
	}

	set.Stop()
	r.Close()
	// Old engines were retired by the pipeline; give drains and
	// detached builds a moment, then require the goroutine count
	// back at (or under) the pre-churn baseline plus scheduler noise.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= base+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine growth: %d now vs %d before churn", runtime.NumGoroutine(), base)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestFaultedShardAnswersFromCache pins the answer, not just the tier,
// a planned query gets while one shard's summarizer is down: shard 2
// fails every build after part of its tag004 slice is cached, so the
// query answers materialized and incomplete, ranking exactly the
// topics that were servable — every related topic of the healthy
// shards (their builds ran during the failed full attempt) plus shard
// 2's cached ones. The reference is a full-fidelity Run over that
// explicit set with the fault lifted.
func TestFaultedShardAnswersFromCache(t *testing.T) {
	_, space := world()
	ctx := context.Background()
	const n, faultShard = 3, 2
	r, engines := buildRouter(t, n, worldOptions())
	defer closeEngines(engines)
	part := r.Partitioner()

	related := space.Related(dataset.TagName(4))
	var owned []topics.TopicID
	for _, id := range related {
		if part.Owns(id) == faultShard {
			owned = append(owned, id)
		}
	}
	if len(owned) < 2 {
		t.Fatalf("shard %d owns %d tag004 topics; need 2 to cache only part of them", faultShard, len(owned))
	}
	cached := owned[:len(owned)-1]
	for _, id := range cached {
		if _, err := engines[faultShard].Summarize(ctx, core.MethodLRW, id); err != nil {
			t.Fatal(err)
		}
	}
	// The servable set: related order, minus shard 2's uncached topic.
	servable := make([]topics.TopicID, 0, len(related)-1)
	for _, id := range related {
		if id != owned[len(owned)-1] {
			servable = append(servable, id)
		}
	}

	broken := chaos.SummarizeFunc(func(context.Context, topics.TopicID) (summary.Summary, error) {
		return summary.Summary{}, errors.New("summarizer down")
	})
	for _, user := range []graph.NodeID{3, 41, 117} {
		for _, k := range []int{3, 0} {
			engines[faultShard].SetSummarizer(core.MethodLRW, broken)
			got, err := r.Run(ctx, core.Query{Text: dataset.TagName(4), User: user, K: k})
			if err != nil {
				t.Fatalf("user %d k=%d: %v, want a materialized answer", user, k, err)
			}
			if out := got.Outcome; out.Tier != core.TierMaterialized || out.Complete {
				t.Fatalf("user %d k=%d: outcome %+v, want partial materialized", user, k, out)
			}
			engines[faultShard].SetSummarizer(core.MethodLRW, nil)
			want, err := r.Run(ctx, core.Query{Topics: servable, User: user, K: k, Fidelity: core.FidelityFull})
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Results) == 0 {
				t.Fatalf("user %d k=%d: the reference ranked nothing", user, k)
			}
			sameResults(t, "faulted shard", want.Ranking(), got.Ranking())
		}
	}
}

// TestRouterFollowsGrownGraph grows the node range through the update
// pipeline and then queries as the new user: the router must validate users
// against the graph its shards serve now, not the one it was wired over
// at boot, and answer exactly like a single engine streamed the same
// events.
func TestRouterFollowsGrownGraph(t *testing.T) {
	g, space := world()
	opts := worldOptions()
	ctx := context.Background()

	const n = 3
	engines, err := shard.BuildEngines(ctx, g, space, opts, n)
	if err != nil {
		t.Fatal(err)
	}
	part, err := shard.NewPartitioner(space, n)
	if err != nil {
		t.Fatal(err)
	}
	set, err := stream.NewSet(engines, stream.Config{BatchSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Stop()
	r, err := shard.New(part, set.Current, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	single, err := core.New(g, space, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := single.BuildIndexes(ctx); err != nil {
		t.Fatal(err)
	}
	pipe, err := stream.NewSet([]*core.Engine{single}, stream.Config{BatchSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		pipe.Stop()
		pipe.Engine().Close()
	}()

	// One new user whom two existing ones influence, so the answer is
	// not trivially empty.
	grown := graph.NodeID(g.NumNodes())
	events := []stream.Event{{From: 3, To: grown, Weight: 0.6}, {From: 41, To: grown, Weight: 0.4}}
	if err := set.Update(1); err != nil {
		t.Fatal(err)
	}
	if err := set.Submit(events...); err != nil {
		t.Fatal(err)
	}
	if err := set.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if err := pipe.Update(1); err != nil {
		t.Fatal(err)
	}
	if err := pipe.Submit(events...); err != nil {
		t.Fatal(err)
	}
	if err := pipe.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	if got, want := r.Graph().NumNodes(), r.Engine(0).Graph().NumNodes(); got != want || want != g.NumNodes()+1 {
		t.Fatalf("router graph has %d nodes, shard 0 serves %d, boot graph had %d", got, want, g.NumNodes())
	}
	influenced := false
	for _, m := range []core.Method{core.MethodLRW, core.MethodRCL} {
		for tag := 0; tag < 4; tag++ {
			q := core.Query{Method: m, Text: dataset.TagName(tag), User: grown, K: 5, Fidelity: core.FidelityFull}
			want, err := pipe.Engine().Run(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			for _, res := range want.Results {
				influenced = influenced || res.Score > 0
			}
			got, err := r.Run(ctx, q)
			if err != nil {
				t.Fatalf("%v %s as grown user %d: %v", m, q.Text, grown, err)
			}
			sameResults(t, "grown user", want.Ranking(), got.Ranking())
		}
	}
	if !influenced {
		t.Fatal("no topic influences the grown user: the comparison proved nothing")
	}
	if _, err := r.Run(ctx, core.Query{Text: dataset.TagName(0), User: grown + 1, K: 5}); !errors.Is(err, core.ErrInvalidArgument) {
		t.Fatalf("user beyond the grown graph: %v, want ErrInvalidArgument", err)
	}
}
