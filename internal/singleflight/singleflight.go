// Package singleflight deduplicates concurrent function calls by key:
// when N goroutines ask for the same key at once, exactly one executes
// the function and all N receive its result. The engine uses it for
// summary materialization, where the paper's offline summarization
// (§3–4) is the expensive step a thundering herd of cache misses must
// not repeat. DoMany is the same protocol over a block of keys — one
// execution for the keys nobody else has in flight, a wait for the rest —
// so a kernel that builds several summaries in one pass keeps per-key
// deduplication; Do is its one-key case.
//
// Unlike golang.org/x/sync/singleflight (not vendored here — the repo
// builds offline), this implementation is context-aware on the waiter
// side: the shared call runs on a context detached from every waiter's
// cancellation, so one canceled request cannot abort a build that other
// requests — or the cache — still want. A waiter whose own ctx ends
// before the shared call completes unblocks immediately with ctx.Err();
// the call keeps running and its result still reaches the remaining
// waiters. The call is not immortal, though: a Group may carry a Base
// lifecycle context, and canceling Base (owner shutdown) cancels every
// in-flight call — the one cancellation signal that outranks the
// waiters.
package singleflight

import (
	"context"
	"fmt"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
)

// call is one in-flight (or completed) execution of fn over the keys
// its DoMany led.
type call[K comparable, V any] struct {
	done chan struct{} // closed when vals/errs are set
	keys []K
	vals []V
	errs []error
}

// slot is one key's place in a call: the flight map's value, and how a
// waiter finds its result once the call is done.
type slot[K comparable, V any] struct {
	c *call[K, V]
	i int
}

// Result is one key's outcome of a DoMany.
type Result[V any] struct {
	Val V
	Err error
	// Shared reports that the value came from a call this DoMany did not
	// start.
	Shared bool
}

// Group deduplicates concurrent calls by key. The zero value is ready to
// use. A Group must not be copied after first use.
type Group[K comparable, V any] struct {
	// Base, when non-nil, bounds the lifetime of every shared call:
	// the call's context still carries the initiating waiter's values
	// (trace IDs etc.) and still ignores the waiters' cancellation, but
	// it is canceled when Base is canceled — the owner-shutdown escape
	// hatch, without which a burst of distinct-key misses could pile up
	// unstoppable detached work. Nil means calls are fully detached and
	// run to completion no matter what. Set Base before the first Do
	// and do not change it afterwards.
	Base context.Context

	mu     sync.Mutex
	flight map[K]slot[K, V]

	// Lifetime counters (atomic; read via Stats), per key: leaders counts
	// keys a caller ran fn for; dedupedWaits counts keys a caller joined
	// an already-in-flight execution for instead — the dedup ratio
	// dedupedWaits / (leaders + dedupedWaits) is the metric the
	// observability layer exports. panics counts recovered fn panics.
	leaders      atomic.Uint64
	dedupedWaits atomic.Uint64
	panics       atomic.Uint64
}

// Stats is a snapshot of a Group's lifetime counters.
type Stats struct {
	// Leaders is how many keys callers executed fn for themselves.
	Leaders uint64
	// DedupedWaits is how many keys callers deduplicated onto another
	// caller's in-flight execution.
	DedupedWaits uint64
	// Panics is how many fn executions panicked (each was recovered and
	// delivered to its waiters as an error).
	Panics uint64
}

// Stats returns a point-in-time snapshot of the group's counters. The
// three fields are loaded independently, so a snapshot taken mid-Do may
// be off by one between them — fine for metrics, not for invariants.
func (g *Group[K, V]) Stats() Stats {
	return Stats{
		Leaders:      g.leaders.Load(),
		DedupedWaits: g.dedupedWaits.Load(),
		Panics:       g.panics.Load(),
	}
}

// Do executes fn for key, deduplicating concurrent callers: while a
// call for key is in flight, later Do calls wait for it instead of
// launching their own. shared reports whether the returned value came
// from a call this goroutine did not itself start.
//
// fn runs in its own goroutine on a context derived from ctx by
// context.WithoutCancel — values (trace IDs etc.) flow through, the
// waiters' cancellation does not, so a waiter hanging up never kills
// work other waiters depend on. The only cancellation fn can observe
// is the Group's Base lifecycle context (owner shutdown); with a nil
// Base it never observes a deadline at all. When the caller's ctx ends
// before fn completes, Do returns ctx.Err() for that caller while fn
// keeps running to completion for the others.
//
// A panic inside fn is recovered and delivered to every waiter as an
// error carrying the panic value and its stack trace, so the bug is
// attributable from logs rather than masked as a transient failure.
//
// Results are not cached: once fn returns and every waiter is released,
// the key is forgotten. Pair Do with an external cache checked first
// (and re-checked inside fn) for read-through behavior.
//
// Do is DoMany's one-key case.
func (g *Group[K, V]) Do(ctx context.Context, key K, fn func(context.Context) (V, error)) (v V, err error, shared bool) {
	r := g.DoMany(ctx, []K{key}, func(ctx context.Context, _ []K, vals []V, errs []error) {
		vals[0], errs[0] = fn(ctx)
	})
	return r[0].Val, r[0].Err, r[0].Shared
}

// DoMany is Do for several keys at once, deduplicated key by key: a key
// some call — Do's or DoMany's — already has in flight is waited on, and
// the caller leads the rest. fn runs once, in its own goroutine and on
// the detached context Do describes, over exactly the led keys in the
// order given, and writes vals[i] and errs[i] for led[i]. Outcomes are
// per key: a key whose fn slot holds an error fails alone, its siblings'
// values still reach their waiters, and a panic in fn reaches the
// waiters of every led key. A key listed twice is led or waited on once
// and reported at both positions. out[i] is keys[i]'s result; when ctx
// ends first, every key whose call has not finished reports ctx.Err()
// while the calls run on for their other waiters.
func (g *Group[K, V]) DoMany(ctx context.Context, keys []K, fn func(ctx context.Context, led []K, vals []V, errs []error)) []Result[V] {
	slots := make([]slot[K, V], len(keys))
	out := make([]Result[V], len(keys))
	var c *call[K, V] // this caller's call, once it leads a key
	g.mu.Lock()
	if g.flight == nil {
		g.flight = make(map[K]slot[K, V])
	}
	for i, k := range keys {
		if s, ok := g.flight[k]; ok {
			slots[i] = s
			if s.c != c {
				out[i].Shared = true
				if !slices.Contains(slots[:i], s) {
					g.dedupedWaits.Add(1)
				}
			}
			continue
		}
		if c == nil {
			c = &call[K, V]{done: make(chan struct{})}
		}
		s := slot[K, V]{c, len(c.keys)}
		c.keys = append(c.keys, k)
		g.flight[k] = s
		slots[i] = s
	}
	g.mu.Unlock()
	if c != nil {
		g.leaders.Add(uint64(len(c.keys)))
		c.vals = make([]V, len(c.keys))
		c.errs = make([]error, len(c.keys))
		go g.run(ctx, c, fn)
	}

	for i, s := range slots {
		select {
		case <-s.c.done:
			out[i].Val, out[i].Err = s.c.vals[s.i], s.c.errs[s.i]
		case <-ctx.Done():
			out[i].Err = ctx.Err()
		}
	}
	return out
}

// run executes c's fn and releases its keys.
func (g *Group[K, V]) run(ctx context.Context, c *call[K, V], fn func(context.Context, []K, []V, []error)) {
	defer func() {
		if p := recover(); p != nil {
			g.panics.Add(1)
			err := fmt.Errorf("singleflight: call panicked: %v\n%s", p, debug.Stack())
			clear(c.vals)
			for i := range c.errs {
				c.errs[i] = err
			}
		}
		g.mu.Lock()
		for _, k := range c.keys {
			delete(g.flight, k)
		}
		g.mu.Unlock()
		close(c.done)
	}()
	fctx := context.WithoutCancel(ctx) // waiter values, no waiter cancellation
	if g.Base != nil {
		var cancel context.CancelFunc
		fctx, cancel = context.WithCancel(fctx)
		defer cancel()
		stop := context.AfterFunc(g.Base, cancel)
		defer stop()
	}
	fn(fctx, c.keys, c.vals, c.errs)
}
