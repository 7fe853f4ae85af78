package core

// The engine's summary cache, rebuilt for concurrency (PR 3): the
// original design guarded one map with the engine-wide mutex, so every
// Search — even a pure cache hit — serialized against every other
// request. The read path of PIT-Search is read-mostly by construction
// (summaries are the paper's *offline* artifact; online queries only
// consult them), so the cache is sharded by key hash with a per-shard
// RWMutex: concurrent readers of any keys never contend, and writers
// (materialization, invalidation, preload) only contend within one
// shard.

import (
	"sync"

	"repro/internal/summary"
	"repro/internal/topics"
)

// numCacheShards is the shard count; a power of two so the hash folds
// with a mask. 32 shards keep worst-case writer contention at 1/32 of
// the old global lock while costing ~32 × a few words of memory.
const numCacheShards = 32

// cacheKey identifies one materialized summary: (method, topic).
type cacheKey struct {
	m Method
	t topics.TopicID
}

// shardOf hashes the key to its shard. Topic IDs are dense small
// integers, so a Fibonacci multiply spreads consecutive topics across
// shards; the method folds in so LRW/RCL entries of one topic land on
// different shards.
func shardOf(k cacheKey) uint32 {
	h := (uint32(k.t)*2 + uint32(k.m) + 1) * 2654435761
	return (h >> 16) & (numCacheShards - 1)
}

// cacheShard is one lock + map pair, padded apart by the surrounding
// array layout (maps are pointers; the mutex dominates the struct).
type cacheShard struct {
	mu sync.RWMutex
	m  map[cacheKey]summary.Summary
	// gen is a per-key write generation, bumped by every invalidation
	// and preload. A summary build captures the generation when it
	// starts (getWithGen) and stores through putIfGen, which no-ops if
	// the generation moved meanwhile — so an InvalidateTopic landing
	// while a build is in flight is never silently overwritten by the
	// build's stale result. Keys never invalidated or preloaded have no
	// entry (generation 0); the map is bounded by |methods| × |topics|.
	gen map[cacheKey]uint64
}

// sumCache is the sharded (method, topic) → summary map. The zero
// value is NOT ready; call init. All methods are safe for concurrent
// use.
type sumCache struct {
	shards [numCacheShards]cacheShard
}

func (c *sumCache) init() {
	for i := range c.shards {
		c.shards[i].m = make(map[cacheKey]summary.Summary)
		c.shards[i].gen = make(map[cacheKey]uint64)
	}
}

// get returns the cached summary for key, if present. Read-lock only:
// concurrent hits never serialize.
func (c *sumCache) get(k cacheKey) (summary.Summary, bool) {
	sh := &c.shards[shardOf(k)]
	sh.mu.RLock()
	s, ok := sh.m[k]
	sh.mu.RUnlock()
	return s, ok
}

// getWithGen is get plus the key's current write generation, read under
// one lock — the first half of the invalidation-safe build protocol
// (see cacheShard.gen). Read the generation *before* building; pass it
// back to putIfGen.
func (c *sumCache) getWithGen(k cacheKey) (summary.Summary, bool, uint64) {
	sh := &c.shards[shardOf(k)]
	sh.mu.RLock()
	s, ok := sh.m[k]
	g := sh.gen[k]
	sh.mu.RUnlock()
	return s, ok, g
}

// putIfGen stores the summary for key unless the key's generation has
// moved past gen — i.e. unless an InvalidateTopic or preload landed
// after the caller read gen. It reports whether the store happened.
func (c *sumCache) putIfGen(k cacheKey, s summary.Summary, gen uint64) bool {
	sh := &c.shards[shardOf(k)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.gen[k] != gen {
		return false
	}
	sh.m[k] = s
	return true
}

// putAll stores a batch (the preload path). Entries are grouped per
// shard so each shard's write lock is taken once.
func (c *sumCache) putAll(m Method, sums []summary.Summary) {
	var perShard [numCacheShards][]summary.Summary
	for _, s := range sums {
		i := shardOf(cacheKey{m, s.Topic})
		perShard[i] = append(perShard[i], s)
	}
	for i := range perShard {
		if len(perShard[i]) == 0 {
			continue
		}
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, s := range perShard[i] {
			k := cacheKey{m, s.Topic}
			sh.m[k] = s
			// A preload is authoritative (externally materialized data):
			// bump the generation so an in-flight build can't clobber it.
			sh.gen[k]++
		}
		sh.mu.Unlock()
	}
}

// deleteTopic drops the cached summaries of t for the given methods.
func (c *sumCache) deleteTopic(t topics.TopicID, methods ...Method) {
	for _, m := range methods {
		k := cacheKey{m, t}
		sh := &c.shards[shardOf(k)]
		sh.mu.Lock()
		delete(sh.m, k)
		sh.gen[k]++ // invalidate any build that started before this point
		sh.mu.Unlock()
	}
}

// appendMethod appends the summaries cached under m to dst, in no
// particular order. The summaries themselves are immutable once cached,
// so sharing them with the caller is safe.
func (c *sumCache) appendMethod(dst []summary.Summary, m Method) []summary.Summary {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		for k, s := range sh.m {
			if k.m == m {
				dst = append(dst, s)
			}
		}
		sh.mu.RUnlock()
	}
	return dst
}

// countMethod returns how many summaries are cached under m — a stats
// path; it walks every shard under read locks.
func (c *sumCache) countMethod(m Method) int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		for k := range sh.m {
			if k.m == m {
				n++
			}
		}
		sh.mu.RUnlock()
	}
	return n
}
