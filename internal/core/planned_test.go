package core

// Engine-internal ladder tests: the per-topic skipped-materialization
// counter, the build breaker refusing the ladder's builds, the one-
// gate-per-request regression and an open session's hold on the gate. The tier table itself runs against both
// backends in ladder_test.go.

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/search"
	"repro/internal/summary"
	"repro/internal/topics"
)

// dummySum is a minimal valid summary for cache-filling test doubles.
func dummySum(t topics.TopicID) summary.Summary {
	return summary.New(t, []summary.WeightedNode{{Node: 1, Weight: 0.5}})
}

// okSummarizer always succeeds instantly.
func okSummarizer() summarizeFunc {
	return func(_ context.Context, t topics.TopicID) (summary.Summary, error) {
		return dummySum(t), nil
	}
}

// failSummarizer always fails.
func failSummarizer(err error) summarizeFunc {
	return func(context.Context, topics.TopicID) (summary.Summary, error) {
		return summary.Summary{}, err
	}
}

// plannedEngine builds an engine over the shared smallWorld dataset
// with a metrics registry and the given build breaker.
func plannedEngine(t *testing.T, breaker plan.BreakerConfig) (*Engine, *obs.Registry) {
	t.Helper()
	g, space := smallWorld()
	reg := obs.NewRegistry()
	eng, err := New(g, space, Options{WalkL: 4, WalkR: 8, Theta: 0.02, Seed: 7, Metrics: reg, Breaker: breaker})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.BuildIndexes(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return eng, reg
}

// TestMaterializedSkippedCounterPinned is the satellite regression test:
// every skipped topic of a materialized-rung search increments
// pit_materialized_skipped_topics_total exactly once. A failing
// summarizer sends the planned query down to that rung; the failed full
// attempt skips nothing.
func TestMaterializedSkippedCounterPinned(t *testing.T) {
	eng, _ := plannedEngine(t, plan.BreakerConfig{})
	related := eng.Space().Related("tag000")
	if _, err := eng.Summarize(context.Background(), MethodLRW, related[0]); err != nil {
		t.Fatal(err)
	}
	eng.SetSummarizer(MethodLRW, failSummarizer(fmt.Errorf("kernel down")))
	want := uint64(len(related) - 1)

	cached := Query{Text: "tag000", User: 3, K: 2}
	ans, err := eng.Run(context.Background(), cached)
	if err != nil || ans.Outcome.Complete || ans.Outcome.Tier != plan.TierMaterialized {
		t.Fatalf("degraded search: %+v err=%v, want partial materialized", ans.Outcome, err)
	}
	if got := eng.met.materializedSkipped[MethodLRW].Value(); got != want {
		t.Fatalf("skipped counter after a cached query = %d, want %d", got, want)
	}
	// The diversified variant counts through the same handle.
	cached.Lambda = 0.5
	if _, err := eng.Run(context.Background(), cached); err != nil {
		t.Fatal(err)
	}
	if got := eng.met.materializedSkipped[MethodLRW].Value(); got != 2*want {
		t.Fatalf("skipped counter after diverse = %d, want %d", got, 2*want)
	}
}

// TestBreakerTripsSuspendsAndRecovers: consecutive build failures trip
// the breaker (suspending further builds with ErrBuildsSuspended, so a
// planned query degrades without reaching the summarizer), and a
// successful half-open probe closes it again.
func TestBreakerTripsSuspendsAndRecovers(t *testing.T) {
	eng, _ := plannedEngine(t, plan.BreakerConfig{Threshold: 2, Cooldown: 20 * time.Millisecond, MaxCooldown: 40 * time.Millisecond, Jitter: 0.01})
	related := eng.Space().Related("tag000")
	injected := fmt.Errorf("kernel down")
	eng.SetSummarizer(MethodLRW, failSummarizer(injected))

	// Two distinct-topic failures reach the threshold.
	for i := 0; i < 2; i++ {
		if _, err := eng.Summarize(context.Background(), MethodLRW, related[i%len(related)]); !errors.Is(err, injected) {
			t.Fatalf("failure %d: %v", i, err)
		}
	}
	if st := eng.BreakerState(MethodLRW); st != plan.Open {
		t.Fatalf("state after threshold = %v, want open", st)
	}
	if _, err := eng.Summarize(context.Background(), MethodLRW, related[0]); !errors.Is(err, ErrBuildsSuspended) {
		t.Fatalf("open-breaker build err = %v, want ErrBuildsSuspended", err)
	}
	if eng.met.breakerTrips[MethodLRW].Value() != 1 {
		t.Fatalf("trips = %d, want 1", eng.met.breakerTrips[MethodLRW].Value())
	}
	if eng.met.buildsSuspended[MethodLRW].Value() != 1 {
		t.Fatalf("suspended = %d, want 1", eng.met.buildsSuspended[MethodLRW].Value())
	}

	// While open, the full tier's builds are refused before the
	// summarizer: the planned query finds nothing materialized and
	// nothing stale, and every refusal is counted.
	var calls atomic.Int32
	eng.SetSummarizer(MethodLRW, summarizeFunc(func(context.Context, topics.TopicID) (summary.Summary, error) {
		calls.Add(1)
		return summary.Summary{}, injected
	}))
	suspended := eng.met.buildsSuspended[MethodLRW].Value()
	query := Query{Text: "tag000", User: 3, K: 2}
	ans, err := eng.Run(context.Background(), query)
	if !errors.Is(err, ErrUnavailable) || ans.Outcome.Tier != plan.TierUnavailable {
		t.Fatalf("open-breaker plan: out=%+v err=%v, want unavailable", ans.Outcome, err)
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("open-breaker plan made %d summarizer calls, want 0", n)
	}
	if got := eng.met.buildsSuspended[MethodLRW].Value(); got <= suspended {
		t.Fatalf("suspended = %d after the open-breaker plan, want > %d", got, suspended)
	}

	// Heal the kernel, wait out the cooldown: the half-open probe closes
	// the breaker and full fidelity returns.
	eng.SetSummarizer(MethodLRW, okSummarizer())
	time.Sleep(50 * time.Millisecond)
	if st := eng.BreakerState(MethodLRW); st != plan.HalfOpen {
		t.Fatalf("state after cooldown = %v, want half-open", st)
	}
	ans, err = eng.Run(context.Background(), query)
	if err != nil || ans.Outcome.Tier != plan.TierFull {
		t.Fatalf("post-heal plan: out=%+v err=%v, want full", ans.Outcome, err)
	}
	if len(ans.Results) == 0 {
		t.Fatal("post-heal plan returned no results")
	}
	if st := eng.BreakerState(MethodLRW); st != plan.Closed {
		t.Fatalf("state after successful probe = %v, want closed", st)
	}
}

// TestRunHoldsGateAcrossRerank is the regression test for the per-call
// gate: a diversified search used to take and release the query gate
// for the search and again for every result's re-rank lookup, so an
// engine retired in between failed the request with ErrNotReady after
// the whole search had run. Run holds the gate once: a retirement that
// begins mid-request waits, and the request either completes or was
// refused before any work.
func TestRunHoldsGateAcrossRerank(t *testing.T) {
	eng, _ := plannedEngine(t, plan.BreakerConfig{})
	eng.EnableDrainGate()
	var (
		builds  atomic.Int32
		retired = make(chan struct{})
	)
	eng.SetSummarizer(MethodLRW, summarizeFunc(func(_ context.Context, id topics.TopicID) (summary.Summary, error) {
		if builds.Add(1) == 1 {
			// Retire from inside the request, and do not go on until the
			// gate is refusing new top-level queries.
			go func() {
				eng.Retire()
				close(retired)
			}()
			for {
				_, release, err := eng.Hold(context.Background())
				if err != nil {
					break
				}
				release()
				time.Sleep(time.Millisecond)
			}
		}
		return dummySum(id), nil
	}))
	ans, err := eng.Run(context.Background(), Query{Text: "tag000", User: 3, K: 2, Lambda: 0.5, Fidelity: FidelityFull})
	if err != nil {
		t.Fatalf("request admitted before the retirement failed after %d builds: %v", builds.Load(), err)
	}
	if len(ans.Results) != 2 {
		t.Fatalf("got %d results, want a complete answer", len(ans.Results))
	}
	<-retired
	// After the drain the engine refuses immediately, before any build.
	before := builds.Load()
	if _, err := eng.Run(context.Background(), Query{Text: "tag001", User: 3, K: 2}); !errors.Is(err, ErrNotReady) {
		t.Fatalf("retired engine: %v, want ErrNotReady", err)
	}
	if builds.Load() != before {
		t.Fatal("retired engine ran a build")
	}
}

// TestGateTokenNamesItsGate: the context Hold returns marks that
// engine's gate as held, and no other's. A retired engine must refuse a
// hold made under another engine's token — skipping its gate would let
// its Retire miss the query, and a mapped engine unmap under it — while
// a nested hold on the same engine still rides the outer one.
func TestGateTokenNamesItsGate(t *testing.T) {
	a, b := builtEngine(t), builtEngine(t)
	defer b.Close()
	a.EnableDrainGate()
	b.EnableDrainGate()
	ctxA, releaseA, err := a.Hold(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b.Retire()
	if _, release, err := b.Hold(ctxA); !errors.Is(err, ErrNotReady) {
		if release != nil {
			release()
		}
		t.Fatalf("retired engine B under engine A's hold: %v, want ErrNotReady", err)
	}

	retired := make(chan struct{})
	go func() {
		a.Retire()
		close(retired)
	}()
	for { // wait until A's gate refuses new top-level holds
		_, release, err := a.Hold(context.Background())
		if err != nil {
			break
		}
		release()
		time.Sleep(time.Millisecond)
	}
	_, release, err := a.Hold(ctxA)
	if err != nil {
		t.Fatalf("nested hold on the held engine: %v", err)
	}
	release()
	select {
	case <-retired:
		t.Fatal("engine A retired under a held query")
	default:
	}
	releaseA()
	<-retired
}

// TestOpenHoldsGateUntilDone pins DESIGN §10's gate contract for an
// open session: Open holds the engine's query gate until Done, not
// until it returns. A Retire racing the session must drain behind it —
// the session still reads the engine's indexes until Done — and return
// once Done has released the gate.
func TestOpenHoldsGateUntilDone(t *testing.T) {
	eng := builtEngine(t)
	eng.EnableDrainGate()
	ctx := context.Background()
	o, err := eng.Open(ctx, OpenRequest{Method: MethodLRW, Topics: eng.Space().Related("tag001"), User: 3})
	if err != nil {
		t.Fatal(err)
	}
	retired := make(chan struct{})
	go func() {
		eng.Retire()
		close(retired)
	}()
	for { // wait until the gate refuses new top-level holds
		_, release, err := eng.Hold(ctx)
		if err != nil {
			break
		}
		release()
		time.Sleep(time.Millisecond)
	}
	select {
	case <-retired:
		t.Fatal("Retire returned while an opened session was not Done")
	default:
	}
	if _, _, err := search.Drive(ctx, o.Session, 3, nil); err != nil {
		t.Fatalf("driving the held session: %v", err)
	}
	select {
	case <-retired:
		t.Fatal("Retire returned while an opened session was not Done")
	default:
	}
	o.Done(nil)
	<-retired
}
