package core

// The engine's one cache-miss path. Summarize, a building Open,
// MaterializeTopics and WarmTopics all read through summarizeInto: one
// cache lookup per topic, then the distinct misses handed to the corpus
// flight in blocks of up to lrw.Lanes topics spread over the caller's
// builders — every core, for a building Open — so LRW-A's built-in
// summarizer runs Equation 5 for a whole block in one pass (DESIGN.md §12
// "Four topics per pass") while every other backend builds the block
// topic by topic.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/lrw"
	"repro/internal/summary"
	"repro/internal/topics"
)

// summarizeInto makes sums[i] ts[i]'s summary under m, in two phases.
// First each topic costs one cache lookup, served even when ctx is done,
// and the misses are collected as distinct topics, so a topic listed
// twice is built once; a fully cached call ends there, having spawned
// and allocated nothing. Then the misses are built in blocks through the
// corpus flight on clampWorkers(workers, misses) goroutines of
// forEachIndex, each block chunkSize topics. A failing block does not
// stop the others — whatever builds is cached — and the error returned
// is the first in ts order; a done ctx stops the hand-out of blocks.
// done, when non-nil, is called with the number of ts positions each step
// served: the hits once the lookups are over, then each block that built.
func (e *Engine) summarizeInto(ctx context.Context, m Method, ts []topics.TopicID, sums []summary.Summary, workers int, done func(n int)) error {
	var (
		miss  []topics.TopicID       // the distinct misses, in ts order
		index map[topics.TopicID]int // index[t] is t's position in miss
		at    []int                  // at[i] indexes miss for a ts[i] that missed, -1 for a hit
		hits  int
	)
	for i, t := range ts {
		if !e.space.Valid(t) {
			return fmt.Errorf("%w: unknown topic %d", ErrInvalidArgument, t)
		}
		if s, ok := e.corpus.cached(cacheKey{m, t}); ok {
			if e.met != nil {
				e.met.cacheHits[m].Inc()
			}
			sums[i] = s
			hits++
			if at != nil {
				at[i] = -1
			}
			continue
		}
		if e.met != nil {
			e.met.cacheMisses[m].Inc()
		}
		if at == nil {
			at = make([]int, len(ts))
			for j := range i {
				at[j] = -1
			}
			index = make(map[topics.TopicID]int)
		}
		j, seen := index[t]
		if !seen {
			j = len(miss)
			index[t] = j
			miss = append(miss, t)
		}
		at[i] = j
	}
	if done != nil && hits > 0 {
		done(hits)
	}
	if miss == nil {
		return nil
	}
	w := clampWorkers(workers, len(miss))
	size := chunkSize(len(miss), w)
	blocks := (len(miss) + size - 1) / size
	var served []int // served[b] counts the ts positions block b fills
	if done != nil {
		served = make([]int, blocks)
		for _, j := range at {
			if j >= 0 {
				served[j/size]++
			}
		}
	}
	built := make([]summary.Summary, len(miss))
	errs := make([]error, blocks)
	err := forEachIndex(ctx, blocks, w, func(b int) error {
		lo, hi := b*size, min((b+1)*size, len(miss))
		errs[b] = e.fillBlock(ctx, m, miss[lo:hi], built[lo:hi])
		if errs[b] == nil && done != nil {
			done(served[b])
		}
		return nil
	})
	for _, blockErr := range errs {
		if blockErr != nil {
			return blockErr
		}
	}
	if err != nil {
		return err
	}
	for i, j := range at {
		if j >= 0 {
			sums[i] = built[j]
		}
	}
	return nil
}

// chunkSize is how many topics a builder takes at a time: a block of
// lrw.Lanes, but never so many that the pool gets fewer than four blocks
// a builder — work stealing balances uneven topics only across blocks,
// and a cancellation strands at most the block each builder has in
// flight.
func chunkSize(n, workers int) int {
	return min(max(n/(4*workers), 1), lrw.Lanes)
}

// fillBlock builds block — distinct topics of m that missed the cache —
// through the corpus flight into sums, sums[j] for block[j]. A topic
// another caller's flight built counts one dedup wait; the builds this
// caller leads count in buildBlock. The first error in block order is
// returned.
func (e *Engine) fillBlock(ctx context.Context, m Method, block []topics.TopicID, sums []summary.Summary) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	var keys [lrw.Lanes]cacheKey
	for j, t := range block {
		keys[j] = cacheKey{m, t}
	}
	res := e.corpus.materialize(ctx, keys[:len(block)], func(ctx context.Context, keys []cacheKey, sums []summary.Summary, errs []error) {
		e.buildBlock(ctx, m, keys, sums, errs)
	})
	var err error
	for j, r := range res {
		if e.met != nil {
			if r.Shared {
				e.met.dedupWaits[m].Inc()
			}
			// A miss racing Engine.Close fails with context.Canceled from
			// the lifecycle context; distinguish it from a waiter hanging
			// up so shutdown-vs-client cancellations are attributable in
			// dashboards.
			if errors.Is(r.Err, context.Canceled) && e.life.Err() != nil {
				e.met.buildsCanceled.Inc()
			}
		}
		if err == nil {
			err = r.Err
		}
		sums[j] = r.Val
	}
	return err
}

// buildBlock is the flight leader's half of a block: keys are the topics
// of m still missing after the corpus's in-flight recheck, and it writes
// sums[i] and errs[i] for keys[i]. The built-in LRW-A summarizer takes
// the block as one run; RCL-A and override backends build it one topic
// at a time. A failed topic is not remembered: the next request that
// misses it builds it again, at most one build per topic at a time
// through the corpus flight, and a panic reaches the flight's recovery.
// Each key counts one build: a topic a racing fill installed between the
// caller's lookup and the flight's recheck never gets here, so no topic
// counts twice. Each built topic observes its share of the block's wall
// time in pit_summary_build_duration_seconds, so the histogram counts
// topics and prices one topic whether it was built alone or in a block
// of lrw.Lanes.
func (e *Engine) buildBlock(ctx context.Context, m Method, keys []cacheKey, sums []summary.Summary, errs []error) {
	if e.met != nil {
		e.met.builds[m].Add(uint64(len(keys)))
	}
	e.ovMu.RLock()
	ov := e.override[m]
	e.ovMu.RUnlock()
	start := time.Now()
	if ov == nil && m == MethodLRW {
		ts := make([]topics.TopicID, len(keys))
		for i, k := range keys {
			ts[i] = k.t
		}
		out, err := e.lrwSum.SummarizeMany(ctx, ts)
		for i := range keys {
			if err != nil {
				errs[i] = err
			} else {
				sums[i] = out[i]
			}
		}
	} else {
		for i, k := range keys {
			sums[i], errs[i] = e.summarizeBackend(ctx, ov, k)
		}
	}
	if e.met == nil {
		return
	}
	share := time.Since(start).Seconds() / float64(len(keys))
	for _, err := range errs {
		if err == nil {
			e.met.buildDur.Observe(share)
		}
	}
}

// summarizeBackend builds one topic on a topic-by-topic backend: the
// override seam, or the built-in RCL-A summarizer.
func (e *Engine) summarizeBackend(ctx context.Context, ov summary.Summarizer, k cacheKey) (summary.Summary, error) {
	if ov != nil {
		return ov.Summarize(ctx, k.t)
	}
	return e.rclSum.Summarize(ctx, k.t)
}
