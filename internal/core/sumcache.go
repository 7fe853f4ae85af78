package core

// The engine's summary cache: one slot per (method, topic). Summaries
// are the paper's offline artifact and online queries only look them up
// (§5), and an engine's topic space never changes once it is built — a
// refresh (§4.4) publishes a new engine — so topic IDs are dense in
// [0, |T|) and the cache is a table: a hit is one atomic load, and no
// reader or writer takes a lock.
//
// The write rules: a build installs only into an empty slot, so it never
// overwrites a preload or another build; a preload stores whatever the
// slot held, since externally materialized data is authoritative; an
// invalidation empties the slot. A build already in flight when its
// topic is invalidated may still install: a built-in build is
// deterministic over the engine's fixed inputs, so it installs exactly
// what the next miss would rebuild.

import (
	"sync/atomic"

	"repro/internal/summary"
	"repro/internal/topics"
)

// cacheKey identifies one materialized summary: (method, topic).
type cacheKey struct {
	m Method
	t topics.TopicID
}

// sumCache holds slots[m][t], topic t's summary under method m once
// materialized. Size it with init; all methods are safe for concurrent
// use.
type sumCache struct {
	slots [2][]atomic.Pointer[summary.Summary]
}

func (c *sumCache) init(numTopics int) {
	for m := range c.slots {
		c.slots[m] = make([]atomic.Pointer[summary.Summary], numTopics)
	}
}

// slot returns k's slot, or nil for a key outside the table — an
// unknown method or topic — which every caller reads as a miss.
func (c *sumCache) slot(k cacheKey) *atomic.Pointer[summary.Summary] {
	if k.m < 0 || int(k.m) >= len(c.slots) || k.t < 0 || int(k.t) >= len(c.slots[k.m]) {
		return nil
	}
	return &c.slots[k.m][k.t]
}

// get returns the cached summary for k, if present.
func (c *sumCache) get(k cacheKey) (summary.Summary, bool) {
	if p := c.slot(k); p != nil {
		if s := p.Load(); s != nil {
			return *s, true
		}
	}
	return summary.Summary{}, false
}

// install stores a built summary for k unless k's slot is already
// filled.
func (c *sumCache) install(k cacheKey, s summary.Summary) {
	if p := c.slot(k); p != nil {
		p.CompareAndSwap(nil, &s)
	}
}

// putAll stores a batch under m whatever the slots held: the preload
// path.
func (c *sumCache) putAll(m Method, sums []summary.Summary) {
	for _, s := range sums {
		if p := c.slot(cacheKey{m, s.Topic}); p != nil {
			p.Store(&s)
		}
	}
}

// deleteTopic empties t's slot under every method.
func (c *sumCache) deleteTopic(t topics.TopicID) {
	for m := range c.slots {
		if p := c.slot(cacheKey{Method(m), t}); p != nil {
			p.Store(nil)
		}
	}
}

// countMethod returns how many summaries are cached under m — a stats
// path that walks m's slots.
func (c *sumCache) countMethod(m Method) int {
	n := 0
	if m.valid() {
		for i := range c.slots[m] {
			if c.slots[m][i].Load() != nil {
				n++
			}
		}
	}
	return n
}
