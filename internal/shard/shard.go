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

// BuildEngines stands up n shard engines over one in-memory dataset —
// core.New × n with identical options (same seed: summaries are
// deterministic per topic ID, so any shard's build of a topic is
// byte-identical to the single engine's), then BuildIndexes.
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
	if err := BuildIndexes(ctx, engines); err != nil {
		return nil, err
	}
	return engines, nil
}

// BuildIndexes readies caller-constructed shard engines (a server makes
// them un-ready so its listener is up before the build) with one offline
// build: shard 0 builds the walk and propagation indexes, the rest adopt
// them via ShareIndexes — N summarizer+corpus units over one index set.
func BuildIndexes(ctx context.Context, engines []*core.Engine) error {
	if err := engines[0].BuildIndexes(ctx); err != nil {
		return fmt.Errorf("shard 0: %w", err)
	}
	for i := 1; i < len(engines); i++ {
		if err := engines[i].ShareIndexes(engines[0]); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// ArtifactsExist reports whether root holds a sharded artifact set (its
// manifest is present).
func ArtifactsExist(root string) bool {
	_, err := os.Stat(filepath.Join(root, ManifestFile))
	return err == nil
}

// LoadArtifacts cold-starts caller-constructed shard engines from dir
// and reports whether it did. The layout is observed, never configured:
// a manifest means the sharded layout (HydrateInto and its loud shard
// count / partition / dataset validation, at any N including 1); bare
// index files mean the flat layout of core's SaveArtifactsFiltered,
// which holds the whole corpus and so fits one shard only; neither (or
// no dir) loads nothing and the caller builds.
func LoadArtifacts(ctx context.Context, engines []*core.Engine, dir string) (bool, error) {
	var err error
	switch {
	case dir == "":
		return false, nil
	case ArtifactsExist(dir):
		_, err = HydrateInto(ctx, engines, engines[0].Graph(), engines[0].Space(), dir)
	case !core.ArtifactsExist(dir):
		return false, nil
	case len(engines) == 1:
		err = engines[0].LoadArtifacts(dir)
	default:
		err = fmt.Errorf(
			"shard: %s holds the flat one-shard layout (%s, %s) but %d shards were asked for — serve it with one shard, or write the sharded layout (%s + shard-<i>/) with `datagen -shards %d -index-dir`",
			dir, core.WalkArtifact, core.PropArtifact, len(engines), ManifestFile, len(engines))
	}
	return err == nil, err
}

// SaveArtifacts persists a built (and possibly warmed) shard set for the
// next cold start: one shard holds the whole corpus and writes the flat
// layout (the files `pitsearch -index-dir` reads), N > 1 shards write
// WriteShardArtifacts' manifest + shard-<i>/ layout.
func SaveArtifacts(engines []*core.Engine, part *Partitioner, dir string) error {
	if len(engines) == 1 {
		return engines[0].SaveArtifactsFiltered(dir, nil)
	}
	return WriteShardArtifacts(engines, part, dir)
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
	if err := firstError(errs); err != nil {
		return nil, err
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
// load-time validation. pitserve (through SaveArtifacts) passes its
// shard engines, each warmed with its owned topics by Router.WarmOwned,
// so no engine ever holds the whole corpus; datagen -shards passes its
// one fully warmed engine in every slot.
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
