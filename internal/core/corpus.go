package core

import (
	"context"

	"repro/internal/singleflight"
	"repro/internal/summary"
)

// corpus is the engine's materialized-summary unit: the sharded
// per-method cache plus the singleflight group that deduplicates
// cache-miss builds. It is one of the engine's three separable parts
// (indexSet, corpus, serving state) — in a multi-shard deployment each
// shard engine owns the corpus slice for the topics its partition
// assigns it, while the indexes underneath are shared or hydrated
// per shard (internal/shard).
//
// The corpus itself is policy-free: metrics and the actual summarizer
// call live in the build closure the engine passes to materialize, so
// the generation dance below stays reusable across serving
// configurations.
type corpus struct {
	cache  sumCache
	flight singleflight.Group[cacheKey, summary.Summary]
}

// init readies the corpus. life bounds detached shared builds exactly
// as it did when the flight group lived on the engine: waiter
// cancellation never aborts a shared build, engine shutdown does.
func (c *corpus) init(life context.Context) {
	c.cache.init()
	c.flight.Base = life
}

// cached returns the materialized summary for key, if present.
func (c *corpus) cached(key cacheKey) (summary.Summary, bool) {
	return c.cache.get(key)
}

// materialize runs the cache-miss path for a block of keys through one
// multi-key flight: keys another caller is building are waited on, and
// for the ones this caller leads, the leader re-checks the cache under
// the flight (a racing fill or preload may have landed), captures each
// key's write generation, hands whatever is still missing to one build
// call — which writes sums[i] and errs[i] for keys[i] — and installs each
// built summary unless an invalidation raced its build: the waiters still
// get it, but the cache won't serve a pre-invalidation summary
// afterwards. Installation is per key, so a key that built is cached even
// when a sibling failed. out[i] is keys[i]'s result; Shared marks a key
// another caller's flight built.
func (c *corpus) materialize(ctx context.Context, keys []cacheKey, build func(ctx context.Context, keys []cacheKey, sums []summary.Summary, errs []error)) []singleflight.Result[summary.Summary] {
	return c.flight.DoMany(ctx, keys, func(ctx context.Context, led []cacheKey, sums []summary.Summary, errs []error) {
		// The led keys still missing: todo[j] is led[at[j]], read at gens[j].
		var (
			todo []cacheKey
			at   []int
			gens []uint64
		)
		for i, k := range led {
			s, ok, gen := c.cache.getWithGen(k)
			if ok {
				sums[i] = s
				continue
			}
			todo, at, gens = append(todo, k), append(at, i), append(gens, gen)
		}
		if len(todo) == 0 {
			return
		}
		built, failed := make([]summary.Summary, len(todo)), make([]error, len(todo))
		build(ctx, todo, built, failed)
		for j, i := range at {
			sums[i], errs[i] = built[j], failed[j]
			if failed[j] == nil {
				c.cache.putIfGen(todo[j], built[j], gens[j])
			}
		}
	})
}
