package a

import (
	"context"
	"sync"

	"b"
)

type Engine struct {
	wg   sync.WaitGroup
	life context.Context
}

// Literal goroutine completing a receiver WaitGroup the method Adds.
func (e *Engine) goodLiteral() {
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
	}()
}

// Done inside a nested (deferred) literal still completes the group.
func goodDeferredDone(wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		defer func() { wg.Done() }()
	}()
}

// Observing the context bounds the goroutine to the lifecycle.
func goodCtx(ctx context.Context) {
	go func() {
		<-ctx.Done()
	}()
}

// Spawning an imported function directly is a finding whatever its body
// does — b.Worker completes the group and b.Watcher observes ctx, but
// the analyzer sees one package at a time and the spawn site shows
// neither.
func badCrossPackage(wg *sync.WaitGroup) {
	wg.Add(1)
	go b.Worker(wg) // want `spawns imported function b\.Worker`
}

func badCrossPackageCtx(ctx context.Context) {
	go b.Watcher(ctx) // want `spawns imported function b\.Watcher`
}

func badCrossPackageLeak() {
	go b.Leak() // want `spawns imported function b\.Leak`
}

// The sanctioned shape: a literal that owns the WaitGroup or ctx and
// calls the imported worker from inside.
func goodCrossPackageWrapped(ctx context.Context, wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		b.Watcher(ctx)
	}()
}

// Delegating to an imported helper proves nothing: its body is out of
// sight, so the literal itself must show the bound.
func badDelegatesCrossPackage(ctx context.Context) {
	go func() { // want `detached from the engine lifecycle`
		b.Watcher(ctx)
	}()
}

// Same-package named callee resolved from its body.
func localWorker(wg *sync.WaitGroup) { defer wg.Done() }

func goodSamePackage(wg *sync.WaitGroup) {
	wg.Add(1)
	go localWorker(wg)
}

// Delegating to a same-package context-observing helper counts.
func goodDelegates(ctx context.Context) {
	go func() {
		helper(ctx)
	}()
}

func helper(ctx context.Context) {
	if ctx.Err() != nil {
		return
	}
}

func badDetached() {
	go func() { // want `detached from the engine lifecycle`
		println("fire and forget")
	}()
}

// Done without a matching Add in the spawner is its own finding: the
// group underflows or, worse, was never something Close waits on.
func badNoAdd(wg *sync.WaitGroup) {
	go func() { // want `never calls Add`
		defer wg.Done()
	}()
}

func fireAndForget() { println("x") }

func badSamePackageNamed() {
	go fireAndForget() // want `detached from the engine lifecycle`
}

// An explicit, justified suppression keeps a deliberate daemon.
func suppressedDaemon() {
	//pitlint:ignore goroutinelife process-lifetime daemon by design, reaped at exit
	go func() { println("daemon") }()
}

// Streaming-dispatcher shape (stream.Pipeline.Start, the subscription
// dispatch loop): the spawn completes the receiver's WaitGroup and
// delegates to a loop that selects on the lifecycle context, so Stop
// (cancel + Wait) reaps it deterministically.
type dispatcher struct {
	wg   sync.WaitGroup
	life context.Context
	kick chan struct{}
}

func (d *dispatcher) loop() {
	for {
		select {
		case <-d.life.Done():
			return
		case <-d.kick:
		}
	}
}

func (d *dispatcher) goodStart() {
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		d.loop()
	}()
}

// The same loop spawned bare is a leak: nothing Adds, nothing observes
// the lifecycle, Stop has nothing to wait on.
func (d *dispatcher) badStart() {
	go func() { // want `detached from the engine lifecycle`
		for range d.kick {
		}
	}()
}
