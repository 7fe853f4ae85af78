package shard_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/topics"
)

func TestPartitionerCoversEveryTopicOnce(t *testing.T) {
	_, space := world()
	for _, n := range []int{1, 2, 7, 31} {
		p, err := shard.NewPartitioner(space, n)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[topics.TopicID]int{}
		for i := 0; i < n; i++ {
			for _, id := range p.Owned(i) {
				seen[id]++
				if p.Owns(id) != i {
					t.Fatalf("n=%d: topic %d in Owned(%d) but Owns says %d", n, id, i, p.Owns(id))
				}
				if core.Assign(id, n) != i {
					t.Fatalf("n=%d: Owned/Assign disagree for topic %d", n, id)
				}
			}
		}
		if len(seen) != space.NumTopics() {
			t.Fatalf("n=%d: %d topics assigned, want %d", n, len(seen), space.NumTopics())
		}
		for id, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: topic %d assigned %d times", n, id, c)
			}
		}
	}
}

func TestSplitPreservesOrderWithinShards(t *testing.T) {
	_, space := world()
	p, err := shard.NewPartitioner(space, 3)
	if err != nil {
		t.Fatal(err)
	}
	ts := []topics.TopicID{9, 1, 14, 3, 0, 7, 11}
	parts := core.Split(ts, 3)
	if len(parts) != 3 {
		t.Fatalf("got %d parts", len(parts))
	}
	total := 0
	for i, part := range parts {
		total += len(part)
		// Each part keeps the input's relative order.
		pos := -1
		for _, id := range part {
			if p.Owns(id) != i {
				t.Fatalf("topic %d misrouted to part %d", id, i)
			}
			at := indexOf(ts, id)
			if at <= pos {
				t.Fatalf("part %d breaks input order at topic %d", i, id)
			}
			pos = at
		}
	}
	if total != len(ts) {
		t.Fatalf("split lost topics: %d of %d", total, len(ts))
	}
}

// TestRouterObservesEachDrive: pit_shard_rounds observes once per
// routed query whose drive completed, with the drive's depth, and
// pit_shard_scatter_fanout the number of shards owning its q-related
// topics; a query with none drives nothing and observes nothing.
func TestRouterObservesEachDrive(t *testing.T) {
	g, space := world()
	ctx := context.Background()
	const n = 4
	engines, err := shard.BuildEngines(ctx, g, space, worldOptions(), n)
	if err != nil {
		t.Fatal(err)
	}
	defer closeEngines(engines)
	part, err := shard.NewPartitioner(space, n)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	r, err := shard.New(part, core.Static(engines...), shard.Config{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	fanout := reg.Histogram("pit_shard_scatter_fanout", "", []float64{1})
	rounds := reg.Histogram("pit_shard_rounds", "", []float64{1})

	queries := [][]topics.TopicID{{0}, {0, 1, 2, 3, 4, 5, 6, 7}, part.Owned(2), {}}
	wantFanout, wantRounds := 0, 0
	for _, ts := range queries {
		owners := map[int]bool{}
		for _, id := range ts {
			owners[part.Owns(id)] = true
		}
		ans, err := r.Run(ctx, core.Query{Topics: ts, User: 5, K: 3, Trace: true, Fidelity: core.FidelityFull})
		if err != nil {
			t.Fatal(err)
		}
		if len(ts) > 0 {
			wantFanout += len(owners)
			wantRounds += ans.Trace.Depth
		}
	}
	if got, want := rounds.Count(), uint64(3); got != want {
		t.Errorf("pit_shard_rounds observed %d times, want %d", got, want)
	}
	if got := rounds.Sum(); got != float64(wantRounds) {
		t.Errorf("pit_shard_rounds sums %v levels, the drives' traces %d", got, wantRounds)
	}
	if got := fanout.Sum(); got != float64(wantFanout) {
		t.Errorf("pit_shard_scatter_fanout sums %v shards, the queries' owners %d", got, wantFanout)
	}
}

func indexOf(ts []topics.TopicID, id topics.TopicID) int {
	for i, t := range ts {
		if t == id {
			return i
		}
	}
	return -1
}

// hydrate constructs n fresh shard engines, as pitserve does, and
// cold-starts them from the artifact directory dir.
func hydrate(ctx context.Context, g *graph.Graph, space *topics.Space, opts core.Options, dir string, n int) ([]*core.Engine, error) {
	engines := make([]*core.Engine, n)
	for i := range engines {
		eng, err := core.New(g, space, opts)
		if err != nil {
			closeEngines(engines[:i])
			return nil, err
		}
		engines[i] = eng
	}
	loaded, err := shard.LoadArtifacts(ctx, engines, dir)
	if err == nil && !loaded {
		err = fmt.Errorf("no artifacts found in %s", dir)
	}
	if err != nil {
		closeEngines(engines)
		return nil, err
	}
	return engines, nil
}

// savedWorld builds one engine over (g, space), warms both methods when
// asked, and saves it into a fresh artifact directory.
func savedWorld(t *testing.T, g *graph.Graph, space *topics.Space, warm bool) (*core.Engine, string) {
	t.Helper()
	ctx := context.Background()
	single, err := core.New(g, space, worldOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { single.Close() })
	if err := single.BuildIndexes(ctx); err != nil {
		t.Fatal(err)
	}
	if warm {
		for _, m := range []core.Method{core.MethodLRW, core.MethodRCL} {
			if err := single.MaterializeAll(ctx, m); err != nil {
				t.Fatal(err)
			}
		}
	}
	dir := t.TempDir()
	if err := core.WriteArtifacts(dir, single); err != nil {
		t.Fatal(err)
	}
	return single, dir
}

// TestHydrateRoundTrip saves one warmed engine, cold-starts a
// 3-shard set from the same directory, and requires the hydrated router
// to answer exactly like the source engine — summaries included, without
// rebuilding anything (every shard's owned slice must arrive warm, and
// nothing else).
func TestHydrateRoundTrip(t *testing.T) {
	g, space := world()
	ctx := context.Background()
	single, dir := savedWorld(t, g, space, true)

	const n = 3
	part, err := shard.NewPartitioner(space, n)
	if err != nil {
		t.Fatal(err)
	}
	engines, err := hydrate(ctx, g, space, worldOptions(), dir, n)
	if err != nil {
		t.Fatal(err)
	}
	defer closeEngines(engines)
	for i, eng := range engines {
		if !eng.Ready() {
			t.Fatalf("shard %d not ready after hydration", i)
		}
		for _, m := range []core.Method{core.MethodLRW, core.MethodRCL} {
			if got, want := eng.CachedSummaries(m), len(part.Owned(i)); got != want {
				t.Fatalf("shard %d: %d cached %v summaries, want %d (owned)", i, got, m, want)
			}
			for _, id := range part.Owned(i) {
				if _, ok := eng.CachedSummary(m, id); !ok {
					t.Fatalf("shard %d: owned topic %d arrived without its %v summary", i, id, m)
				}
			}
		}
	}

	r, err := shard.New(part, core.Static(engines...), shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	all := make([]topics.TopicID, space.NumTopics())
	for i := range all {
		all[i] = topics.TopicID(i)
	}
	for q := 0; q < 10; q++ {
		user := graph.NodeID(q * 17 % g.NumNodes())
		want, err := single.SearchTopics(ctx, core.MethodRCL, all, user, 5)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.SearchTopics(ctx, core.MethodRCL, all, user, 5)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, "hydrated", want, got)
	}
}

// TestHydrateRejectsMismatches: artifacts of another dataset snapshot
// fail a 2-shard cold start loudly — the checks are the artifact load's
// own, run by every shard.
func TestHydrateRejectsMismatches(t *testing.T) {
	g, space := world()
	ctx := context.Background()

	t.Run("node count", func(t *testing.T) {
		g2, err := dataset.GenerateGraph(dataset.GraphConfig{Nodes: 200, MinOutDegree: 2, MaxOutDegree: 6, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		space2, err := dataset.GenerateTopics(g2, dataset.TopicConfig{Tags: 5, TopicsPerTag: 4, MeanTopicNodes: 12, Locality: 0.7, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		_, dir := savedWorld(t, g2, space2, false)
		_, err = hydrate(ctx, g, space, worldOptions(), dir, 2)
		if err == nil || !strings.Contains(err.Error(), "covers 200 nodes, graph has 300") {
			t.Fatalf("indexes of a 200-node graph hydrated a 300-node one: %v", err)
		}
	})
	t.Run("topic count", func(t *testing.T) {
		// Same graph, a larger space: some warmed summary names a topic
		// the serving space does not have.
		bigger, err := dataset.GenerateTopics(g, dataset.TopicConfig{Tags: 5, TopicsPerTag: 6, MeanTopicNodes: 12, Locality: 0.7, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		_, dir := savedWorld(t, g, bigger, true)
		_, err = hydrate(ctx, g, space, worldOptions(), dir, 2)
		if err == nil || !strings.Contains(err.Error(), "unknown topic") {
			t.Fatalf("summaries of a %d-topic space hydrated a %d-topic one: %v", bigger.NumTopics(), space.NumTopics(), err)
		}
	})

	// The fixture itself hydrates when the dataset matches.
	_, dir := savedWorld(t, g, space, true)
	engines, err := hydrate(ctx, g, space, worldOptions(), dir, 2)
	if err != nil {
		t.Fatalf("matching artifacts rejected: %v", err)
	}
	closeEngines(engines)
}
