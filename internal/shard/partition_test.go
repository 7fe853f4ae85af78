package shard_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
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
				if shard.Assign(id, n) != i {
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
	parts := p.Split(ts)
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

func indexOf(ts []topics.TopicID, id topics.TopicID) int {
	for i, t := range ts {
		if t == id {
			return i
		}
	}
	return -1
}

// allSlots is the datagen -shards shape: one fully warmed engine
// snapshots every shard.
func allSlots(eng *core.Engine, n int) []*core.Engine {
	engines := make([]*core.Engine, n)
	for i := range engines {
		engines[i] = eng
	}
	return engines
}

// hydrate constructs n fresh shard engines, as pitserve does, and
// hydrates them from root.
func hydrate(ctx context.Context, g *graph.Graph, space *topics.Space, opts core.Options, root string, n int) ([]*core.Engine, *shard.Partitioner, error) {
	engines := make([]*core.Engine, n)
	for i := range engines {
		eng, err := core.New(g, space, opts)
		if err != nil {
			closeEngines(engines[:i])
			return nil, nil, err
		}
		engines[i] = eng
	}
	part, err := shard.HydrateInto(ctx, engines, g, space, root)
	if err != nil {
		closeEngines(engines)
		return nil, nil, err
	}
	return engines, part, nil
}

// TestHydrateRoundTrip writes sharded artifacts from a warmed engine,
// hydrates a fresh shard set from them, and requires the hydrated
// router to answer exactly like the source engine — summaries included,
// without rebuilding anything (the corpus must arrive warm).
func TestHydrateRoundTrip(t *testing.T) {
	g, space := world()
	opts := worldOptions()
	ctx := context.Background()
	single, err := core.New(g, space, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	if err := single.BuildIndexes(ctx); err != nil {
		t.Fatal(err)
	}
	all := make([]topics.TopicID, space.NumTopics())
	for i := range all {
		all[i] = topics.TopicID(i)
	}
	for _, m := range []core.Method{core.MethodLRW, core.MethodRCL} {
		if _, err := single.MaterializeTopics(ctx, m, all, 2); err != nil {
			t.Fatal(err)
		}
	}

	const n = 3
	part, err := shard.NewPartitioner(space, n)
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	if err := shard.WriteShardArtifacts(allSlots(single, part.Shards()), part, root); err != nil {
		t.Fatal(err)
	}

	engines, hydPart, err := hydrate(ctx, g, space, opts, root, n)
	if err != nil {
		t.Fatal(err)
	}
	defer closeEngines(engines)
	if hydPart.Shards() != n {
		t.Fatalf("hydrated %d shards, want %d", hydPart.Shards(), n)
	}
	// Every shard arrives warm with exactly its owned topics.
	for i, eng := range engines {
		if !eng.Ready() {
			t.Fatalf("shard %d not ready after hydration", i)
		}
		want := len(hydPart.Owned(i))
		for _, m := range []core.Method{core.MethodLRW, core.MethodRCL} {
			if got := eng.CachedSummaries(m); got != want {
				t.Fatalf("shard %d: %d cached %v summaries, want %d (owned)", i, got, m, want)
			}
		}
	}

	r, err := shard.NewRouter(g, space, hydPart, staticSources(engines), shard.Config{})
	if err != nil {
		t.Fatal(err)
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

// TestHydrateRejectsMismatches tampers with every validated manifest
// field and requires a loud failure.
func TestHydrateRejectsMismatches(t *testing.T) {
	g, space := world()
	opts := worldOptions()
	ctx := context.Background()
	single, err := core.New(g, space, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	if err := single.BuildIndexes(ctx); err != nil {
		t.Fatal(err)
	}
	part, err := shard.NewPartitioner(space, 2)
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	if err := shard.WriteShardArtifacts(allSlots(single, part.Shards()), part, root); err != nil {
		t.Fatal(err)
	}
	good, err := shard.ReadManifest(root)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		mutate func(m *shard.Manifest)
		want   string
		shards int
	}{
		{"wrong shard flag", func(m *shard.Manifest) {}, "-shards", 5},
		{"version", func(m *shard.Manifest) { m.Version = 99 }, "version", 2},
		{"partition function", func(m *shard.Manifest) { m.Partition = "modulo/v0" }, "partition function", 2},
		{"topic count", func(m *shard.Manifest) { m.Topics++ }, "topics", 2},
		{"node count", func(m *shard.Manifest) { m.Nodes-- }, "nodes", 2},
		{"per-shard entries", func(m *shard.Manifest) { m.PerShard = m.PerShard[:1] }, "entries", 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := good
			bad.PerShard = append([]shard.ShardInfo(nil), good.PerShard...)
			tc.mutate(&bad)
			if err := shard.WriteManifest(root, bad); err != nil {
				t.Fatal(err)
			}
			_, _, err := hydrate(ctx, g, space, opts, root, tc.shards)
			if err == nil {
				t.Fatalf("hydration accepted a manifest with a bad %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	// Restore the good manifest and prove the fixture itself hydrates.
	if err := shard.WriteManifest(root, good); err != nil {
		t.Fatal(err)
	}
	engines, _, err := hydrate(ctx, g, space, opts, root, 2)
	if err != nil {
		t.Fatalf("good manifest rejected: %v", err)
	}
	closeEngines(engines)
}
