//go:build go1.24

package main

import (
	"context"
	"runtime"
	"testing"
	"time"
	"weak"

	"repro/internal/core"
	"repro/internal/stream"
)

// TestRetiredBootEnginesAreCollectable: once the streaming pipeline owns
// the engines, the app keeps none of its own, so a boot engine the first
// swap retired — its walk index, Γ and warmed summary cache with it — is
// garbage after one flush and a GC. (The app used to keep the boot set in
// a field for the life of the process.)
func TestRetiredBootEnginesAreCollectable(t *testing.T) {
	o := testOptions()
	o.shards = 2
	o.warmSummaries = "lrw"
	o.streamBatch = 1 << 20
	o.streamMaxAge = time.Hour // only the explicit Flush below applies
	a, err := buildApp(o)
	if err != nil {
		t.Fatal(err)
	}
	defer a.closeEngine()
	ctx := context.Background()
	if err := a.prepare(ctx); err != nil {
		t.Fatal(err)
	}
	boot := make([]weak.Pointer[core.Engine], o.shards)
	for i := range boot {
		boot[i] = weak.Make(a.router.Engine(i))
	}
	if err := a.pipe.Submit(stream.Event{From: 3, To: 7, Weight: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := a.pipe.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	// Retire has drained the gate and cancelled the lifecycle; the
	// goroutines that observe it may take a moment to exit.
	for deadline := time.Now().Add(5 * time.Second); ; {
		runtime.GC()
		alive := 0
		for _, p := range boot {
			if p.Value() != nil {
				alive++
			}
		}
		if alive == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d boot engines still reachable after a flush and GC", alive, len(boot))
		}
		time.Sleep(10 * time.Millisecond)
	}
}
