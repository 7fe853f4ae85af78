package core

// The engine's one cache-miss path. Summarize, a building Open,
// MaterializeTopics and WarmTopics all read through summarizeInto: one
// cache lookup per topic, and the misses handed to the corpus flight in
// blocks of up to lrw.Lanes topics, so LRW-A's built-in summarizer runs
// Equation 5 for a whole block in one pass (DESIGN.md §12 "Four topics per
// pass") while every other backend builds the block topic by topic.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/lrw"
	"repro/internal/plan"
	"repro/internal/summary"
	"repro/internal/topics"
)

// summarizeInto makes sums[i] ts[i]'s summary under m. Each topic costs
// one cache lookup, served even when ctx is done. Misses gather, as
// distinct topics, into a block that is built once it is full and again
// at the end, so a topic listed twice is built once, and a topic listed
// again after its block was built is a cache hit. The first error in ts
// order is returned.
func (e *Engine) summarizeInto(ctx context.Context, m Method, ts []topics.TopicID, sums []summary.Summary) error {
	var block [lrw.Lanes]topics.TopicID
	k, from := 0, 0 // block holds the distinct misses among ts[from:]
	for i, t := range ts {
		if !e.space.Valid(t) {
			return fmt.Errorf("%w: unknown topic %d", ErrInvalidArgument, t)
		}
		if s, ok := e.corpus.cached(cacheKey{m, t}); ok {
			if e.met != nil {
				e.met.cacheHits[m].Inc()
			}
			sums[i] = s
			continue
		}
		if e.met != nil {
			e.met.cacheMisses[m].Inc()
		}
		if slices.Contains(block[:k], t) {
			continue
		}
		if k == len(block) {
			if err := e.fillBlock(ctx, m, block[:k], ts[from:i], sums[from:i]); err != nil {
				return err
			}
			k, from = 0, i
		}
		block[k] = t
		k++
	}
	if k == 0 {
		return nil
	}
	return e.fillBlock(ctx, m, block[:k], ts[from:], sums[from:])
}

// summarizeChunks is summarizeInto across up to workers goroutines
// pulling chunks of ts from forEachIndex's cursor. done, when non-nil, is
// called with each finished chunk's size.
func (e *Engine) summarizeChunks(ctx context.Context, m Method, ts []topics.TopicID, sums []summary.Summary, workers int, done func(n int)) error {
	size := chunkSize(len(ts), clampWorkers(workers, len(ts)))
	return forEachIndex(ctx, (len(ts)+size-1)/size, workers, func(c int) error {
		lo, hi := c*size, min((c+1)*size, len(ts))
		if err := e.summarizeInto(ctx, m, ts[lo:hi], sums[lo:hi]); err != nil {
			return err
		}
		if done != nil {
			done(hi - lo)
		}
		return nil
	})
}

// chunkSize is how many topics a worker takes at a time: a block, but
// never so many that the pool gets fewer than four chunks a worker — work
// stealing balances uneven topics only across chunks, and a cancellation
// strands at most the chunk each worker has in flight.
func chunkSize(n, workers int) int {
	return min(max(n/(4*workers), 1), lrw.Lanes)
}

// fillBlock builds block — distinct topics of m that missed the cache —
// through the corpus flight, then copies each summary to every position
// of ts naming its topic. A topic another caller's flight built counts
// one dedup wait; the builds this caller leads count in buildBlock.
func (e *Engine) fillBlock(ctx context.Context, m Method, block, ts []topics.TopicID, sums []summary.Summary) error {
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
	for _, r := range res {
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
	}
	if err != nil {
		return err
	}
	for i, t := range ts {
		if j := slices.Index(block, t); j >= 0 {
			sums[i] = res[j].Val
		}
	}
	return nil
}

// buildBlock is the flight leader's half of a block: keys are the topics
// of m still missing after the corpus's in-flight recheck, and it writes
// sums[i] and errs[i] for keys[i]. The breaker is consulted only here, one
// Allow per topic, so a half-open probe slot is consumed exclusively by a
// topic that will actually build and report its outcome; a refused topic
// fails with ErrBuildsSuspended. The built-in LRW-A summarizer takes the
// admitted topics as one run; RCL-A and override backends build them one
// at a time, Allow before each. Each key counts one build: a topic a
// racing fill installed between the caller's lookup and the flight's
// recheck never gets here, so no topic counts twice.
func (e *Engine) buildBlock(ctx context.Context, m Method, keys []cacheKey, sums []summary.Summary, errs []error) {
	if e.met != nil {
		e.met.builds[m].Add(uint64(len(keys)))
	}
	br := e.breakers[m]
	e.ovMu.RLock()
	ov := e.override[m]
	e.ovMu.RUnlock()
	lanes := ov == nil && m == MethodLRW
	for i := 0; i < len(keys); {
		// A run ends at the first refusal. The refused topic asks again
		// once the run has reported: a half-open probe's outcome decides
		// whether its siblings build, as it did when each was its own call.
		j := i
		for j < len(keys) && (lanes || j == i) && br.Allow() {
			j++
		}
		if j == i {
			if e.met != nil {
				e.met.buildsSuspended[m].Inc()
			}
			errs[i] = fmt.Errorf("%w: %v build breaker open", ErrBuildsSuspended, m)
			i++
			continue
		}
		e.buildRecorded(ctx, lanes, ov, keys[i:j], sums[i:j], errs[i:j], br)
		i = j
	}
}

// buildRecorded builds one admitted run and reports each topic's outcome
// to the breaker — exactly once, panic included: every Allow consumed a
// probe slot the breaker gets back only through OnSuccess/OnFailure, so a
// panicking kernel must count as a failure for every topic not yet
// reported before the panic continues up into the singleflight recovery.
// Cancellations caused by engine shutdown are neutral: a drained process
// says nothing about kernel health. Each built topic observes its share
// of the run's wall time in pit_summary_build_duration_seconds, so the
// histogram counts topics and prices one topic whether it was built alone
// or in a block of lrw.Lanes. lanes selects
// the built-in LRW-A summarizer's SummarizeMany; otherwise the run is one
// topic for summarizeBackend.
func (e *Engine) buildRecorded(ctx context.Context, lanes bool, ov summary.Summarizer, keys []cacheKey, sums []summary.Summary, errs []error, br *plan.Breaker) {
	reported := 0
	defer func() {
		for ; reported < len(keys); reported++ {
			br.OnFailure()
		}
	}()
	start := time.Now()
	if lanes {
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
	share := time.Since(start).Seconds() / float64(len(keys))
	for _, err := range errs {
		switch {
		case err == nil:
			br.OnSuccess()
			if e.met != nil {
				e.met.buildDur.Observe(share)
			}
		case errors.Is(err, context.Canceled) && e.life.Err() != nil:
			// Shutdown, not a kernel fault: leave the breaker untouched.
		default:
			br.OnFailure()
		}
		reported++
	}
}

// summarizeBackend builds one topic on a topic-by-topic backend: the
// override seam, or the built-in RCL-A summarizer.
func (e *Engine) summarizeBackend(ctx context.Context, ov summary.Summarizer, k cacheKey) (summary.Summary, error) {
	if ov != nil {
		return ov.Summarize(ctx, k.t)
	}
	// The RCL summarizer owns mutable BFS state; serialize it.
	e.rclMu.Lock()
	defer e.rclMu.Unlock()
	return e.rclSum.Summarize(ctx, k.t)
}
