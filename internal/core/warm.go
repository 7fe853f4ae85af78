package core

// The offline warm-up pipeline (PR 5): the paper's summaries are offline
// artifacts — "the summarization for each topic is computed offline and
// the online search only consults it" — yet until now the only way to
// build the whole corpus was MaterializeAll, a bare fan-out with no
// progress, no instrumentation and no way for a serving process to gate
// readiness on it. WarmSummaries is the productionized form: a bounded
// work-stealing pool that drives every topic through the same
// singleflight/sumcache machinery the online path uses (so a warm racing
// live misses never duplicates work), with first-error semantics,
// mid-corpus cancellation, per-run metrics and a progress callback that
// serving layers turn into readiness logs.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/summary"
	"repro/internal/topics"
)

// clampWorkers resolves a requested pool size against a work-item count:
// requested ≤ 0 defaults to GOMAXPROCS, the pool never exceeds the item
// count, and the result is at least 1 (a degenerate pool runs serially).
// Every engine fan-out — the miss blocks of a building Open, summary
// materialization, batch search, corpus warm-up — sizes its pool
// through this one helper.
func clampWorkers(requested, items int) int {
	if requested <= 0 {
		requested = runtime.GOMAXPROCS(0)
	}
	if requested > items {
		requested = items
	}
	if requested < 1 {
		requested = 1
	}
	return requested
}

// WarmOptions tunes a warm run (WarmSummaries, WarmTopics). The zero
// value warms with GOMAXPROCS workers and no progress reporting.
type WarmOptions struct {
	// Workers bounds the warm pool; ≤ 0 means GOMAXPROCS.
	Workers int
	// Progress, when non-nil, is called after each topic is materialized
	// with the number of topics completed so far and the size of the run.
	// Calls are serialized and done is strictly increasing, so the
	// callback can drive logs or a readiness gauge without its own
	// locking. It runs on worker goroutines — keep it fast.
	Progress func(done, total int)
}

// forEachIndex calls fn(i) for every i in [0, n) on clampWorkers(workers,
// n) goroutines that pull indexes from one atomic cursor (work stealing:
// a worker that lands on a cheap item immediately takes the next one); a
// pool of one runs on the caller's goroutine. Every worker checks ctx
// before each item, and the first error observed — ctx's or fn's — stops
// the hand-out and is what the call returns. Every engine fan-out
// (corpus warm-up, topic materialization, the miss blocks of a building
// Open, the user batch of RunMany) is this one pool.
func forEachIndex(ctx context.Context, n, workers int, fn func(i int) error) error {
	var (
		wg   sync.WaitGroup
		next atomic.Int64
		fail firstError
	)
	w := clampWorkers(workers, n)
	if w == 1 {
		// Inline: a one-worker pool costs no goroutine.
		for i := range n {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	for ; w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				err := ctx.Err()
				if err == nil {
					err = fn(i)
				}
				if err != nil {
					fail.set(err)
					next.Store(int64(n)) // stop handing out work
					return
				}
			}
		}()
	}
	wg.Wait()
	return fail.get()
}

// WarmSummaries materializes the summary of every topic in the space
// under method m before query traffic needs them — the paper's offline
// topic-to-representative index build (Figures 15–16), run as fast as
// the hardware allows: WarmTopics over the whole space. A nil return
// means the whole corpus is hot.
func (e *Engine) WarmSummaries(ctx context.Context, m Method, opts WarmOptions) error {
	all := make([]topics.TopicID, e.space.NumTopics())
	for i := range all {
		all[i] = topics.TopicID(i)
	}
	return e.WarmTopics(ctx, m, all, opts)
}

// WarmTopics materializes the summaries of ts under m — the one
// instrumented warm pool: a whole-corpus warm passes every topic, a
// shard (shard.Router.WarmOwned) the topics it owns. It is the engine's
// miss path with up to opts.Workers builders, i.e. the singleflight group
// and the slot cache: topics already materialized are skipped at
// cache-hit cost, the rest build in blocks of up to lrw.Lanes, and a
// warm racing live cache misses collapses into the same in-flight
// builds. Each warmed topic counts into pit_warm_topics_total and
// opts.Progress; a completed run observes pit_warm_duration_seconds.
//
// Cancellation and errors follow the miss path's conventions: ctx is
// observed between blocks by every builder (and inside the summarizers
// themselves), a mid-run cancellation returns ctx.Err() while every
// already-completed topic stays cached and valid, and a failing topic
// fails the warm with the first error in ts order once every other
// block has built.
func (e *Engine) WarmTopics(ctx context.Context, m Method, ts []topics.TopicID, opts WarmOptions) error {
	ctx, release, err := e.acquire(ctx)
	if err != nil {
		return err
	}
	defer release()
	if !m.valid() {
		return fmt.Errorf("%w: unknown method %v", ErrInvalidArgument, m)
	}
	if len(ts) == 0 {
		return nil
	}
	start := time.Now()
	var (
		progMu sync.Mutex // serializes opts.Progress calls
		done   int        // guarded by progMu
	)
	err = e.summarizeInto(ctx, m, ts, make([]summary.Summary, len(ts)), opts.Workers, func(n int) {
		if e.met != nil {
			e.met.warmTopics[m].Add(uint64(n))
		}
		if opts.Progress != nil {
			progMu.Lock()
			for range n {
				done++
				opts.Progress(done, len(ts))
			}
			progMu.Unlock()
		}
	})
	if err != nil {
		return err
	}
	if e.met != nil {
		e.met.warmDur.Observe(time.Since(start).Seconds())
	}
	return nil
}
