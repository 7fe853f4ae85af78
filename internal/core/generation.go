package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/graph"
	"repro/internal/search"
	"repro/internal/summary"
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

// Open opens one search session for req.User over the topics the
// generation's engines own: parts[i] is engine i's share of req.Topics.
// Each owner supplies its summaries — building or cached-only, as req
// asks — and the session runs on engine 0's searcher over all of them,
// in parts order. Every engine of a generation carries the same indexes,
// and Algorithm 11's expansion depends only on the user and Γ, so the
// session ranks exactly what one engine holding every topic would. The
// generation stays held (Hold) until Done. Owners gather in parallel
// when there is more than one, and Open waits for all of them: a failing
// owner fails the open only after the healthy owners' builds are cached,
// and the lowest-index error surfaces. A building open's misses build on
// every core: a lone owner gets GOMAXPROCS builders, each of N owners
// GOMAXPROCS/N (at least one), so a request never runs more builders
// than there are cores.
func (g *Generation) Open(ctx context.Context, req OpenRequest, parts [][]topics.TopicID) (Opened, error) {
	ctx, release, err := g.Hold(ctx)
	if err != nil {
		return Opened{}, err
	}
	sums, total, err := g.gather(ctx, req, parts)
	var sess *search.Session
	if err == nil {
		sess, err = g.Engines[0].idx.searcher.NewSession(ctx, req.User, sums)
	}
	if err != nil {
		release()
		return Opened{}, err
	}
	return Opened{
		Session:  sess,
		Complete: len(sums) == total,
		Done: func(*search.Stats) {
			sess.Close()
			release()
		},
	}, nil
}

// gather collects Open's summaries into one slice, each owner filling
// its own stretch of it, and reports how many topics the parts hold.
func (g *Generation) gather(ctx context.Context, req OpenRequest, parts [][]topics.TopicID) ([]summary.Summary, int, error) {
	if !req.Method.valid() {
		return nil, 0, fmt.Errorf("%w: unknown method %v", ErrInvalidArgument, req.Method)
	}
	total, owners := 0, 0
	for _, ts := range parts {
		if len(ts) > 0 {
			total += len(ts)
			owners++
		}
	}
	builders := max(1, runtime.GOMAXPROCS(0)/max(owners, 1))
	buf := make([]summary.Summary, total)
	got := make([][]summary.Summary, len(parts))
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	off := 0
	for i, ts := range parts {
		if len(ts) == 0 {
			continue
		}
		dst := buf[off : off : off+len(ts)]
		off += len(ts)
		if owners == 1 {
			got[i], errs[i] = g.Engines[i].summaries(ctx, req, ts, dst, builders)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = g.Engines[i].summaries(ctx, req, ts, dst, builders)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, total, err
		}
	}
	// A cached-only owner may leave its stretch short: close the gaps.
	n := 0
	for _, sums := range got {
		n += copy(buf[n:], sums)
	}
	return buf[:n], total, nil
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
