package core

import (
	"context"

	"repro/internal/graph"
	"repro/internal/topics"
)

// Generation is one published state of a deployment: the engine of
// every shard after the same applied batches, over one graph and topic
// space. It is immutable. A streaming deployment publishes generation
// ID+1 with one pointer store and then retires generation ID as a
// whole; a static deployment is generation 0 forever. A reader that
// loads one Generation and holds it (Hold) sees one network — never
// some shards before a batch and the rest after it.
type Generation struct {
	ID      uint64
	Engines []*Engine
}

// Static is the generation source of a deployment that never swaps:
// generation 0 over engines.
func Static(engines ...*Engine) func() *Generation {
	g := &Generation{Engines: engines}
	return func() *Generation { return g }
}

// Graph returns the social graph the generation serves (every shard
// serves the same one).
func (g *Generation) Graph() *graph.Graph { return g.Engines[0].Graph() }

// Space returns the topic space the generation serves.
func (g *Generation) Space() *topics.Space { return g.Engines[0].Space() }

// CachedSummaries sums the materialized summaries for m across the
// engines — corpus ownership is disjoint, so the sum is the corpus size.
func (g *Generation) CachedSummaries(m Method) int {
	n := 0
	for _, e := range g.Engines {
		n += e.CachedSummaries(m)
	}
	return n
}

// IndexStats reports engine 0's index sizing. Every engine carries a
// full copy of the immutable indexes, so one describes them all.
func (g *Generation) IndexStats() IndexStats { return g.Engines[0].IndexStats() }

// Hold acquires every engine's query gate, so a retirement of the
// generation drains behind the caller. The returned context carries
// every gate's token: nested calls on these engines do not re-acquire.
// A refusal (ErrNotReady: an engine retired, or not ready yet) releases
// whatever was acquired.
func (g *Generation) Hold(ctx context.Context) (context.Context, func(), error) {
	releases := make([]func(), 0, len(g.Engines))
	releaseAll := func() {
		for _, f := range releases {
			f()
		}
	}
	for _, e := range g.Engines {
		held, release, err := e.acquire(ctx)
		if err != nil {
			releaseAll()
			return ctx, nil, err
		}
		ctx = held
		releases = append(releases, release)
	}
	return ctx, releaseAll, nil
}

// Retire retires every engine of a generation that a newer one has
// replaced (Engine.Retire: refuse new queries, drain in-flight ones).
func (g *Generation) Retire() {
	for _, e := range g.Engines {
		e.Retire()
	}
}

// Close closes every engine of the generation.
func (g *Generation) Close() {
	for _, e := range g.Engines {
		e.Close()
	}
}
