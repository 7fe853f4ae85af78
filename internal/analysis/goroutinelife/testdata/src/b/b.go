// Dependency fixture: an imported worker package. "a" may call these
// from a goroutine it bounds itself, but never spawn them directly —
// their bodies are invisible to a's analysis.
package b

import (
	"context"
	"sync"
)

// Worker completes the caller's WaitGroup.
func Worker(wg *sync.WaitGroup) {
	defer wg.Done()
}

// Watcher observes its context.
func Watcher(ctx context.Context) {
	for {
		if ctx.Err() != nil {
			return
		}
	}
}

// Leak neither completes a group nor observes a context.
func Leak() {
	for {
		println("busy")
	}
}
