package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/lrw"
	"repro/internal/propidx"
	"repro/internal/randwalk"
	"repro/internal/rcl"
	"repro/internal/search"
)

// indexSet bundles the immutable offline indexes and the searcher over
// them — the read-only unit of the engine, separable from the summary
// corpus and the serving state. Once published (via the ready flag's
// release store) an indexSet never changes, so it can be shared across
// engines: a multi-shard deployment builds the walks once and hands
// every shard engine the same set (ShareIndexes), while each shard
// keeps its own summarizers, corpus and lifecycle.
type indexSet struct {
	walks    *randwalk.Index
	prop     *propidx.Index
	searcher *search.Searcher
}

// buildIndexSet constructs the offline indexes: the L-length
// random-walk index of Algorithm 6 and the personalized propagation
// index of Section 5.1, plus the searcher over the latter.
func buildIndexSet(ctx context.Context, g *graph.Graph, opts Options) (indexSet, error) {
	walks, err := randwalk.Build(ctx, g, randwalk.Options{L: opts.WalkL, R: opts.WalkR, Seed: opts.Seed})
	if err != nil {
		return indexSet{}, fmt.Errorf("core: walk index: %w", err)
	}
	prop, err := propidx.Build(ctx, g, propidx.Options{Theta: opts.Theta})
	if err != nil {
		return indexSet{}, fmt.Errorf("core: propagation index: %w", err)
	}
	searcher, err := search.New(prop, opts.Search)
	if err != nil {
		return indexSet{}, fmt.Errorf("core: searcher: %w", err)
	}
	return indexSet{walks: walks, prop: prop, searcher: searcher}, nil
}

// PatchStats reports how much of each index a PatchIndexes re-did.
type PatchStats struct {
	Walks randwalk.PatchStats
	Prop  propidx.PatchStats
}

// patchIndexSet derives the indexSet of g from old, the set of oldG: what
// buildIndexSet(ctx, g, opts) returns, at a cost that follows the edges
// that differ between the two graphs (randwalk.Patch, propidx.Patch).
func patchIndexSet(ctx context.Context, old indexSet, oldG, g *graph.Graph, opts Options) (indexSet, PatchStats, error) {
	var stats PatchStats
	walks, ws, err := randwalk.Patch(ctx, old.walks, oldG, g, randwalk.Options{L: opts.WalkL, R: opts.WalkR, Seed: opts.Seed})
	if err != nil {
		return indexSet{}, stats, fmt.Errorf("core: walk index: %w", err)
	}
	prop, ps, err := propidx.Patch(ctx, old.prop, oldG, g, propidx.Options{Theta: opts.Theta})
	if err != nil {
		return indexSet{}, stats, fmt.Errorf("core: propagation index: %w", err)
	}
	searcher, err := search.New(prop, opts.Search)
	if err != nil {
		return indexSet{}, stats, fmt.Errorf("core: searcher: %w", err)
	}
	return indexSet{walks: walks, prop: prop, searcher: searcher}, PatchStats{Walks: ws, Prop: ps}, nil
}

// PatchIndexes makes the engine ready with the indexes BuildIndexes would
// build, derived from those of old — the engine it replaces, over the
// graph this engine's graph was updated from — by re-sampling only the
// walks and re-enumerating only the Γ rows the differing edges can reach.
// The result is bit-identical to a build; where a patch cannot promise
// that cheaply (node growth, other options, indexes loaded from an
// artifact directory) the index concerned is built and the stats say so.
// old is only read and keeps serving. The engine also takes over old's
// build breakers: a swap changes the graph, not the health of the
// summarizer, so a tripped breaker stays tripped with its backoff. Like
// BuildIndexes it observes pit_index_build_duration_seconds once and is
// a no-op on a ready engine.
func (e *Engine) PatchIndexes(ctx context.Context, old *Engine) (PatchStats, error) {
	if old == nil {
		return PatchStats{}, fmt.Errorf("core: PatchIndexes: nil source engine")
	}
	if err := old.requireIndexes(); err != nil {
		return PatchStats{}, fmt.Errorf("core: PatchIndexes: source %w", ErrNotReady)
	}
	var stats PatchStats
	err := e.publishIndexes(func() (idx indexSet, err error) {
		idx, stats, err = patchIndexSet(ctx, old.idx, old.g, e.g, e.opts)
		e.breakers = old.breakers
		return idx, err
	})
	return stats, err
}

// publishIndexes is the one way an engine comes to own freshly made
// indexes: make them, install them, time the whole as one index build and
// publish. A ready engine is left as it is.
func (e *Engine) publishIndexes(produce func() (indexSet, error)) error {
	e.buildMu.Lock()
	defer e.buildMu.Unlock()
	if e.ready.Load() {
		return nil
	}
	start := time.Now()
	idx, err := produce()
	if err != nil {
		return err
	}
	if err := e.installIndexes(idx); err != nil {
		return err
	}
	if e.met != nil {
		e.met.indexDur.Observe(time.Since(start).Seconds())
	}
	// The atomic store publishes every field written above: a reader
	// that observes ready == true also observes the indexes.
	e.ready.Store(true)
	return nil
}

// installIndexes wires an indexSet into the engine and constructs the
// per-engine summarizer pair over its walk index. The summarizers are
// deliberately not part of the set: the RCL summarizer owns mutable
// BFS scratch serialized by rclMu, so engines sharing one indexSet
// still summarize in parallel — the point of partitioning the corpus.
// The caller publishes with ready.Store(true) after this returns.
func (e *Engine) installIndexes(idx indexSet) error {
	lrwSum, err := lrw.New(e.g, e.space, idx.walks, e.opts.LRW)
	if err != nil {
		return fmt.Errorf("core: lrw summarizer: %w", err)
	}
	rclSum, err := rcl.New(e.g, e.space, idx.walks, e.opts.RCL)
	if err != nil {
		return fmt.Errorf("core: rcl summarizer: %w", err)
	}
	e.idx = idx
	e.lrwSum, e.rclSum = lrwSum, rclSum
	return nil
}

// ShareIndexes makes the engine ready by adopting the already-built
// indexSet of src instead of rebuilding walks and propagation rows —
// how a multi-shard deployment stands up N engines over one dataset
// with one index build. The shared indexes are immutable so the
// aliasing is safe; summarizers, corpus, breakers and lifecycle stay
// per-engine. src must be ready and built, not loaded: an engine
// restored by LoadArtifacts refuses to share, because its mappings'
// lifetime is bound to src's Close and a sharing engine would fault
// after src unmaps — each engine loads the artifact directory itself.
func (e *Engine) ShareIndexes(src *Engine) error {
	if src == nil {
		return fmt.Errorf("core: ShareIndexes: nil source engine")
	}
	if err := src.requireIndexes(); err != nil {
		return fmt.Errorf("core: ShareIndexes: source %w", ErrNotReady)
	}
	if src.mapped {
		return fmt.Errorf("core: ShareIndexes: source engine is backed by file mappings; each engine must load the artifact directory itself")
	}
	if src.g != e.g {
		return fmt.Errorf("core: ShareIndexes: engines must share the same graph")
	}
	e.buildMu.Lock()
	defer e.buildMu.Unlock()
	if e.ready.Load() {
		return nil
	}
	if err := e.installIndexes(src.idx); err != nil {
		return err
	}
	e.ready.Store(true)
	return nil
}

// IndexStats reports the sizes the serving layer surfaces in /stats.
// It does not touch mapped memory beyond the index headers; callers
// still Hold the engine around it so a concurrent Close cannot unmap
// mid-read.
type IndexStats struct {
	PropEntries int     // total Γ entries across all rows
	Theta       float64 // propagation threshold θ
	WalkL       int     // Algorithm 6 walk length L
	WalkR       int     // walks per node R
}

// IndexStats returns the engine's index sizing; zero before readiness.
func (e *Engine) IndexStats() IndexStats {
	if !e.ready.Load() {
		return IndexStats{}
	}
	return IndexStats{
		PropEntries: e.idx.prop.Size(),
		Theta:       e.idx.prop.Theta(),
		WalkL:       e.idx.walks.L,
		WalkR:       e.idx.walks.R,
	}
}
