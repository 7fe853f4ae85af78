package shard_test

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/search"
	"repro/internal/shard"
	"repro/internal/topics"

	"math/rand"
)

// world builds the shared differential dataset once per test binary:
// big enough that queries expand a few levels and the pruning bound
// actually fires, small enough to build 31 shard engines cheaply.
var world = sync.OnceValues(func() (*graph.Graph, *topics.Space) {
	g, err := dataset.GenerateGraph(dataset.GraphConfig{
		Nodes: 300, MinOutDegree: 2, MaxOutDegree: 6, Seed: 11,
	})
	if err != nil {
		panic(err)
	}
	space, err := dataset.GenerateTopics(g, dataset.TopicConfig{
		Tags: 5, TopicsPerTag: 4, MeanTopicNodes: 12, Locality: 0.7, Seed: 11,
	})
	if err != nil {
		panic(err)
	}
	return g, space
})

func worldOptions() core.Options {
	return core.Options{WalkL: 4, WalkR: 8, Theta: 0.02, Seed: 7}
}

func buildRouter(t testing.TB, n int, opts core.Options) (*shard.Router, []*core.Engine) {
	t.Helper()
	g, space := world()
	engines, err := shard.BuildEngines(context.Background(), g, space, opts, n)
	if err != nil {
		t.Fatal(err)
	}
	part, err := shard.NewPartitioner(space, n)
	if err != nil {
		t.Fatal(err)
	}
	r, err := shard.New(part, core.Static(engines...), shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return r, engines
}

func closeEngines(engines []*core.Engine) {
	for _, eng := range engines {
		eng.Close()
	}
}

// sameResults requires bit-for-bit equality: same topics in the same
// order with the exact same float64 scores. Any reliance on "close
// enough" would hide an inexact merge.
func sameResults(t *testing.T, ctxDesc string, want, got []search.Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: got %d results, want %d\n got: %v\nwant: %v", ctxDesc, len(got), len(want), got, want)
	}
	for i := range want {
		if want[i].Topic != got[i].Topic || math.Float64bits(want[i].Score) != math.Float64bits(got[i].Score) {
			t.Fatalf("%s: result %d differs\n got: %+v (bits %x)\nwant: %+v (bits %x)",
				ctxDesc, i, got[i], math.Float64bits(got[i].Score), want[i], math.Float64bits(want[i].Score))
		}
	}
}

func pickMethod(rng *rand.Rand) core.Method {
	if rng.Intn(2) == 0 {
		return core.MethodLRW
	}
	return core.MethodRCL
}

// TestRouterMatchesSingleEngine is the PR's keystone: for N ∈ {1, 2,
// 7, 31} the scatter-gather merge must reproduce the single engine's
// top-k byte for byte over a large random query mix — the bound-based
// shard pruning is exact, never approximate. N = 31 > |topics|
// guarantees topic-empty shards, which must be harmless.
func TestRouterMatchesSingleEngine(t *testing.T) {
	g, space := world()
	opts := worldOptions()
	single, err := core.New(g, space, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	ctx := context.Background()
	if err := single.BuildIndexes(ctx); err != nil {
		t.Fatal(err)
	}

	for _, n := range []int{1, 2, 7, 31} {
		r, engines := buildRouter(t, n, opts)
		if n > space.NumTopics() {
			empty := 0
			for i := 0; i < n; i++ {
				if len(r.Partitioner().Owned(i)) == 0 {
					empty++
				}
			}
			if empty == 0 {
				t.Fatalf("n=%d with %d topics: expected topic-empty shards", n, space.NumTopics())
			}
		}

		rng := rand.New(rand.NewSource(93 + int64(n)))
		allTopics := make([]topics.TopicID, space.NumTopics())
		for i := range allTopics {
			allTopics[i] = topics.TopicID(i)
		}
		for qi := 0; qi < 120; qi++ {
			user := graph.NodeID(rng.Intn(g.NumNodes()))
			m := pickMethod(rng)
			switch qi % 3 {
			case 0: // explicit topic subsets, random k
				rng.Shuffle(len(allTopics), func(i, j int) { allTopics[i], allTopics[j] = allTopics[j], allTopics[i] })
				sub := allTopics[:1+rng.Intn(len(allTopics))]
				k := 1 + rng.Intn(len(sub))
				want, err := single.SearchTopics(ctx, m, sub, user, k)
				if err != nil {
					t.Fatalf("n=%d q=%d: single: %v", n, qi, err)
				}
				got, err := r.SearchTopics(ctx, m, sub, user, k)
				if err != nil {
					t.Fatalf("n=%d q=%d: router: %v", n, qi, err)
				}
				sameResults(t, "topics", want, got)
			case 1, 2: // keyword queries, plain and diversified
				q := core.Query{Method: m, Text: dataset.TagName(rng.Intn(5)), User: user, Fidelity: core.FidelityFull}
				if qi%3 == 1 {
					q.K = rng.Intn(6)
				} else {
					q.K, q.Lambda = 1+rng.Intn(4), 0.5
				}
				want, err := single.Run(ctx, q)
				if err != nil {
					t.Fatalf("n=%d q=%d: single: %v", n, qi, err)
				}
				got, err := r.Run(ctx, q)
				if err != nil {
					t.Fatalf("n=%d q=%d: router: %v", n, qi, err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("n=%d q=%d: Run(%+v) differs\n got: %v\nwant: %v", n, qi, q, got, want)
				}
			}
		}

		// The batch path is a worker pool over the same Run; one sweep
		// per N.
		users := make([]graph.NodeID, 25)
		for i := range users {
			users[i] = graph.NodeID(rng.Intn(g.NumNodes()))
		}
		batch := core.Query{Text: dataset.TagName(1), K: 3, Fidelity: core.FidelityFull}
		want, err := core.RunMany(ctx, single, batch, users, 4)
		if err != nil {
			t.Fatalf("n=%d: single RunMany: %v", n, err)
		}
		got, err := core.RunMany(ctx, r, batch, users, 4)
		if err != nil {
			t.Fatalf("n=%d: router RunMany: %v", n, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("n=%d: RunMany differs\n got: %v\nwant: %v", n, got, want)
		}

		closeEngines(engines)
	}
}

// TestRouterMatchesSingleEngineExhaustive repeats the comparison with
// pruning disabled: the scatter must also reproduce the exhaustive
// reference run (where shard drop-out is forbidden — unconsumed
// near-zero representative mass may still move scores).
func TestRouterMatchesSingleEngineExhaustive(t *testing.T) {
	g, space := world()
	opts := worldOptions()
	opts.Search.DisablePruning = true
	single, err := core.New(g, space, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	ctx := context.Background()
	if err := single.BuildIndexes(ctx); err != nil {
		t.Fatal(err)
	}
	r, engines := buildRouter(t, 3, opts)
	defer closeEngines(engines)

	rng := rand.New(rand.NewSource(5))
	allTopics := make([]topics.TopicID, space.NumTopics())
	for i := range allTopics {
		allTopics[i] = topics.TopicID(i)
	}
	for q := 0; q < 30; q++ {
		user := graph.NodeID(rng.Intn(g.NumNodes()))
		rng.Shuffle(len(allTopics), func(i, j int) { allTopics[i], allTopics[j] = allTopics[j], allTopics[i] })
		sub := allTopics[:1+rng.Intn(len(allTopics))]
		k := 1 + rng.Intn(len(sub))
		want, err := single.SearchTopics(ctx, core.MethodRCL, sub, user, k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.SearchTopics(ctx, core.MethodRCL, sub, user, k)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, "exhaustive", want, got)
	}
}

// TestRouterPlannedFullTierMatchesSingle pins the planned path's
// healthy case to the same exactness: all shards full ⇒ TierFull and
// the single engine's answer.
func TestRouterPlannedFullTierMatchesSingle(t *testing.T) {
	g, space := world()
	opts := worldOptions()
	single, err := core.New(g, space, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	ctx := context.Background()
	if err := single.BuildIndexes(ctx); err != nil {
		t.Fatal(err)
	}
	r, engines := buildRouter(t, 4, opts)
	defer closeEngines(engines)

	rng := rand.New(rand.NewSource(17))
	for qi := 0; qi < 40; qi++ {
		user := graph.NodeID(rng.Intn(g.NumNodes()))
		query := dataset.TagName(rng.Intn(5))
		k := 1 + rng.Intn(5)
		lambda := 0.0
		if qi%2 == 1 {
			lambda = 0.4
		}
		q := core.Query{Text: query, User: user, K: k, Lambda: lambda}
		want, err := single.Run(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Run(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if got.Outcome.Tier.String() != "full" || !got.Outcome.Complete {
			t.Fatalf("q=%d: outcome %+v, want full/complete", qi, got.Outcome)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("q=%d: planned differs\n got: %v\nwant: %v", qi, got, want)
		}
	}
}
