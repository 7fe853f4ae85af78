// Module-path fixture for the search package, in scope since the
// Algorithm-10 driver (and with it the parallel per-session expansion
// of a scattered query) moved here from the router: its goroutines must
// be gatherable (WaitGroup) or lifecycle-cancelable like the rest of
// the serving stack.
package search

import "sync"

type driver struct {
	wg sync.WaitGroup
}

// Scatter fan-out: every per-session goroutine completes the gather
// WaitGroup the loop Adds, so the gather barrier accounts for all of
// them.
func (d *driver) goodScatter(sessions int) {
	for i := 0; i < sessions; i++ {
		d.wg.Add(1)
		go func(i int) {
			defer d.wg.Done()
			_ = i
		}(i)
	}
	d.wg.Wait()
}

// A goroutine nothing waits on is the leak the scope extension exists
// to catch.
func Detached() {
	go func() { println("kernel-local") }() // want `detached from the engine lifecycle`
}
