package shard

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/topics"
)

// EngineSource resolves a shard's current engine. Static deployments
// return a fixed engine; streaming deployments return the shard
// pipeline's current one, so the router follows swaps without
// coordination.
type EngineSource func() *core.Engine

// BuildEngines stands up n shard engines over one in-memory dataset:
// shard 0 builds the offline indexes, the rest adopt them via
// ShareIndexes — one walk/propagation build total, N independent
// summarizer+corpus units. Every engine gets identical options (same
// seed: summaries are deterministic per topic ID, so any shard's build
// of a topic is byte-identical to the single engine's).
func BuildEngines(ctx context.Context, g *graph.Graph, space *topics.Space, opts core.Options, n int) ([]*core.Engine, error) {
	if n <= 0 {
		return nil, fmt.Errorf("shard: need a positive shard count, got %d", n)
	}
	engines := make([]*core.Engine, n)
	for i := range engines {
		eng, err := core.New(g, space, opts)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		engines[i] = eng
	}
	if err := engines[0].BuildIndexes(ctx); err != nil {
		return nil, fmt.Errorf("shard 0: %w", err)
	}
	for i := 1; i < n; i++ {
		if err := engines[i].ShareIndexes(engines[0]); err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return engines, nil
}

// ArtifactsExist reports whether root holds a sharded artifact set (its
// manifest is present) — the cold-start-vs-build decision point.
func ArtifactsExist(root string) bool {
	_, err := os.Stat(filepath.Join(root, ManifestFile))
	return err == nil
}

// HydrateInto cold-starts caller-constructed shard engines (one per
// shard, in shard order — deployments wire them into pipelines and
// metrics first) from a sharded artifact root written by `datagen
// -shards` or WriteShardArtifacts: the manifest is validated against the
// live dataset and len(engines) (partition function, shard count, topic
// and node counts — any mismatch fails loudly), then every shard
// mmap-loads its own directory in parallel, so time-to-ready is one
// shard's open, not N sequential ones. After loading, each shard's
// preloaded summaries are checked against the partition: a summary for
// a topic the shard does not own means the artifacts and the
// partitioner disagree, and the whole hydration fails rather than serve
// misrouted topics. On error the caller closes the engines.
func HydrateInto(ctx context.Context, engines []*core.Engine, g *graph.Graph, space *topics.Space, root string) (*Partitioner, error) {
	man, err := ReadManifest(root)
	if err != nil {
		return nil, err
	}
	if err := man.Validate(space, g, len(engines)); err != nil {
		return nil, err
	}
	part, err := NewPartitioner(space, man.Shards)
	if err != nil {
		return nil, err
	}
	errs := make([]error, len(engines))
	var wg sync.WaitGroup
	for i := range engines {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := ctx.Err(); err != nil {
				errs[i] = err
				return
			}
			if err := engines[i].LoadArtifacts(ShardDir(root, i)); err != nil {
				errs[i] = fmt.Errorf("shard %d: %w", i, err)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// Ownership audit: every preloaded summary must belong to its shard
	// under the manifest's partition function.
	for i, eng := range engines {
		for t := 0; t < space.NumTopics(); t++ {
			id := topics.TopicID(t)
			if part.Owns(id) == i {
				continue
			}
			for _, m := range []core.Method{core.MethodLRW, core.MethodRCL} {
				if _, cached := eng.CachedSummary(m, id); cached {
					return nil, fmt.Errorf(
						"shard: %s holds a %v summary for topic %d, owned by shard %d under %s — artifacts don't match the partition",
						ShardDir(root, i), m, id, part.Owns(id), man.Partition)
				}
			}
		}
	}
	return part, nil
}

// WriteShardArtifacts snapshots a warmed serving set into a sharded
// artifact root: engine i writes shard-<i>/ — the full index artifacts
// (self-contained: a shard hydrates anywhere the dataset is available)
// plus exactly the cached summaries the partition assigns shard i — and
// the manifest records the partition function and dataset shape for
// load-time validation. A sharded pitserve passes its shard engines
// (each warmed with its owned topics, e.g. via Router.WarmOwned), so no
// engine ever holds the whole corpus; datagen -shards passes its one
// fully warmed engine in every slot.
func WriteShardArtifacts(engines []*core.Engine, part *Partitioner, root string) error {
	if len(engines) != part.Shards() {
		return fmt.Errorf("shard: %d engines for %d shards", len(engines), part.Shards())
	}
	for i, eng := range engines {
		keep := func(t topics.TopicID) bool { return Assign(t, part.Shards()) == i }
		if err := eng.SaveArtifactsFiltered(ShardDir(root, i), keep); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return WriteManifest(root, NewManifest(part, engines[0].Graph()))
}
