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

// EngineSource resolves one shard's engine. It survives only as
// NewRouter's argument type for frozen benchmark/trace.go; routers
// follow a deployment through a generation source (New).
type EngineSource = func() *core.Engine

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

// retiredManifest is the marker file of the per-shard artifact layout
// (a manifest plus shard-<i>/ index copies) this build no longer reads
// or writes.
const retiredManifest = "shard-manifest.json"

// LoadArtifacts cold-starts caller-constructed shard engines from dir
// and reports whether it did; no dir, or one without the index
// artifacts, loads nothing and the caller builds. An artifact directory
// belongs to the dataset, not to a shard count: every engine opens the
// same files itself, in parallel (read-only mappings of one file share
// its pages, and each engine keeps its own handles and Close/Retire
// drain), and preloads only the summaries core.Assign gives it — so whatever
// wrote the directory (core.WriteArtifacts over one engine or over a
// shard set of any width: the bytes are the same), it serves any
// len(engines). The dataset checks are core's (index node counts, every
// summary's topic inside the space). On error the caller closes the
// engines.
func LoadArtifacts(ctx context.Context, engines []*core.Engine, dir string) (bool, error) {
	if dir == "" {
		return false, nil
	}
	if !core.ArtifactsExist(dir) {
		if _, err := os.Stat(filepath.Join(dir, retiredManifest)); err == nil {
			return false, fmt.Errorf(
				"shard: %s holds %s, the retired per-shard artifact layout, and no %s — regenerate it with `datagen -index-dir` (or delete the directory)",
				dir, retiredManifest, core.WalkArtifact)
		}
		return false, nil
	}
	n := len(engines)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range engines {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := ctx.Err(); err != nil {
				errs[i] = err
				return
			}
			owns := func(t topics.TopicID) bool { return core.Assign(t, n) == i }
			if err := engines[i].LoadOwnedArtifacts(dir, owns); err != nil {
				errs[i] = fmt.Errorf("shard %d: %w", i, err)
			}
		}(i)
	}
	wg.Wait()
	if err := firstError(errs); err != nil {
		return false, err
	}
	return true, nil
}
