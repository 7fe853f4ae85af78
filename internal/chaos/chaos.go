// Package chaos is a fault-injection layer for the serving stack's
// robustness tests. It wraps any summary.Summarizer — through the same
// Engine.SetSummarizer seam production uses for backend overrides — and
// injects the failure modes a real kernel exhibits under pressure:
// added latency, transient errors, a permanent outage, and panics, each
// deterministic for a seed and optionally targeted at specific topics.
//
// The point is falsifiability: the fidelity ladder's claims ("under
// 30% summarizer failure the server keeps answering from lower tiers
// with zero unplanned 5xx"; "the breaker trips, backs off, and recovers
// through a half-open probe") are only worth stating if a harness can
// break the kernel on demand and watch the ladder hold. Chaos wrappers
// live in _test binaries; the package has no production callers.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/summary"
	"repro/internal/topics"
)

// Injected fault sentinels. Tests assert on them with errors.Is to
// distinguish planned chaos from real bugs.
var (
	// ErrTransient is the error returned for probabilistic (FailRate)
	// failures — the kind a retry or a lower tier should absorb.
	ErrTransient = errors.New("chaos: injected transient failure")
	// ErrPermanent is the error returned while PermanentOutage is set —
	// the kind that should trip the breaker.
	ErrPermanent = errors.New("chaos: injected permanent outage")
)

// Config is one fault regime. The zero value injects nothing (a
// transparent wrapper); SetConfig swaps regimes atomically mid-test to
// script outages and recoveries.
type Config struct {
	// Seed seeds the deterministic fault stream (0 means a fixed
	// default). Two wrappers with the same seed and call order inject
	// the same faults.
	Seed uint64
	// FailRate is the probability in [0,1] that a call returns
	// ErrTransient.
	FailRate float64
	// PanicRate is the probability in [0,1] that a call panics —
	// exercising the singleflight recovery and breaker bookkeeping
	// paths.
	PanicRate float64
	// Latency is added before the inner call, observing ctx cancellation
	// while waiting (a slow kernel must still be a cancelable kernel).
	Latency time.Duration
	// PermanentOutage makes every call fail with ErrPermanent until a
	// SetConfig heals it — the breaker-trip scenario.
	PermanentOutage bool
	// Target, when set, limits injection to topics it returns true for;
	// other topics pass straight through to the inner summarizer.
	Target func(topics.TopicID) bool
}

// Stats counts what the wrapper actually did — tests assert injection
// really happened rather than trusting probabilities.
type Stats struct {
	Calls    int64 // total Summarize calls observed
	Injected int64 // calls subjected to this regime (Target matched)
	Failures int64 // ErrTransient + ErrPermanent returned
	Panics   int64 // injected panics
	Delays   int64 // calls that waited the injected latency
}

// Summarizer wraps an inner summary.Summarizer with fault injection.
// Safe for concurrent use; the fault stream is mutex-serialized so a
// seeded run is reproducible up to goroutine interleaving.
type Summarizer struct {
	inner summary.Summarizer

	mu  sync.Mutex
	cfg Config
	rng uint64

	calls    atomic.Int64
	injected atomic.Int64
	failures atomic.Int64
	panics   atomic.Int64
	delays   atomic.Int64
}

// Wrap builds a chaos wrapper around inner under cfg.
func Wrap(inner summary.Summarizer, cfg Config) *Summarizer {
	s := &Summarizer{inner: inner}
	s.SetConfig(cfg)
	return s
}

// SetConfig replaces the fault regime — heal an outage, escalate a fail
// rate — without disturbing the wrapper's identity or counters. The RNG
// is reseeded from the new config.
func (s *Summarizer) SetConfig(cfg Config) {
	seed := cfg.Seed
	if seed == 0 {
		seed = 0x6a09e667f3bcc909
	}
	s.mu.Lock()
	s.cfg = cfg
	s.rng = seed
	s.mu.Unlock()
}

// Stats returns a snapshot of the injection counters.
func (s *Summarizer) Stats() Stats {
	return Stats{
		Calls:    s.calls.Load(),
		Injected: s.injected.Load(),
		Failures: s.failures.Load(),
		Panics:   s.panics.Load(),
		Delays:   s.delays.Load(),
	}
}

// Summarize applies the configured regime, then delegates to the inner
// summarizer if the call survives.
func (s *Summarizer) Summarize(ctx context.Context, t topics.TopicID) (summary.Summary, error) {
	s.calls.Add(1)

	// Snapshot the regime and draw the fault decisions under one lock
	// acquisition so a concurrent SetConfig flips regimes atomically.
	s.mu.Lock()
	cfg := s.cfg
	var pPanic, pFail float64
	if cfg.PanicRate > 0 {
		pPanic = s.randLocked()
	}
	if cfg.FailRate > 0 {
		pFail = s.randLocked()
	}
	s.mu.Unlock()

	if cfg.Target != nil && !cfg.Target(t) {
		return s.inner.Summarize(ctx, t)
	}
	s.injected.Add(1)

	if cfg.Latency > 0 {
		s.delays.Add(1)
		timer := time.NewTimer(cfg.Latency)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return summary.Summary{}, ctx.Err()
		}
	}
	if cfg.PermanentOutage {
		s.failures.Add(1)
		return summary.Summary{}, fmt.Errorf("summarize topic %d: %w", t, ErrPermanent)
	}
	if cfg.PanicRate > 0 && pPanic < cfg.PanicRate {
		s.panics.Add(1)
		panic(fmt.Sprintf("chaos: injected panic for topic %d", t))
	}
	if cfg.FailRate > 0 && pFail < cfg.FailRate {
		s.failures.Add(1)
		return summary.Summary{}, fmt.Errorf("summarize topic %d: %w", t, ErrTransient)
	}
	return s.inner.Summarize(ctx, t)
}

// randLocked draws a uniform float64 in [0,1) from the wrapper's
// xorshift64 stream (caller holds s.mu; no global PRNG per pitlint
// norandglobal).
func (s *Summarizer) randLocked() float64 {
	r := s.rng
	r ^= r << 13
	r ^= r >> 7
	r ^= r << 17
	s.rng = r
	return float64(r>>11) / (1 << 53)
}

// SummarizeFunc adapts a function to summary.Summarizer — convenient
// for building inner test doubles.
type SummarizeFunc func(ctx context.Context, t topics.TopicID) (summary.Summary, error)

// Summarize calls f.
func (f SummarizeFunc) Summarize(ctx context.Context, t topics.TopicID) (summary.Summary, error) {
	return f(ctx, t)
}
