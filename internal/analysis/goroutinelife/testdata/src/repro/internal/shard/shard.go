// Module-path fixture for the scatter-gather router package, in scope
// since the PR-10 extension: the router's parallel hydration loaders
// and shard probes must be gatherable (WaitGroup) or
// lifecycle-cancelable, exactly like the rest of the serving stack.
// (The scatter fan-out case lives with the search fixture, where the
// driver's parallel expansion now is.)
package shard

import (
	"context"
	"sync"
)

// Parallel hydration: loaders complete a local group and observe the
// hydration context, so cancellation stops the cold start.
func goodHydrate(ctx context.Context, n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if ctx.Err() != nil {
				return
			}
		}(i)
	}
	wg.Wait()
}

// A shard probe spawned with neither is the leak the scope extension
// exists to catch: the gather returns while the probe still runs.
func badProbe(ch chan int) {
	go func() { // want `detached from the engine lifecycle`
		ch <- 1
	}()
}

// A scatter loop whose goroutines never complete the group the caller
// waits on: Done without Add in the spawner.
func badScatterNoAdd(wg *sync.WaitGroup, shards int) {
	for i := 0; i < shards; i++ {
		go func() { // want `never calls Add`
			defer wg.Done()
		}()
	}
}
