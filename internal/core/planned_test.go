package core

// Engine-internal ladder tests: the per-topic skipped-materialization
// counter, the one-gate-per-request regression, a built engine's
// Retire draining its in-flight Run, and an open session's hold on the
// gate. The tier table itself runs against both backends in
// ladder_test.go.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/summary"
	"repro/internal/topics"
)

// dummySum is a minimal valid summary for cache-filling test doubles.
func dummySum(t topics.TopicID) summary.Summary {
	return summary.New(t, []summary.WeightedNode{{Node: 1, Weight: 0.5}})
}

// failSummarizer always fails.
func failSummarizer(err error) summarizeFunc {
	return func(context.Context, topics.TopicID) (summary.Summary, error) {
		return summary.Summary{}, err
	}
}

// plannedEngine builds an engine over the shared smallWorld dataset
// with a metrics registry.
func plannedEngine(t *testing.T) *Engine {
	t.Helper()
	g, space := smallWorld()
	eng, err := New(g, space, Options{WalkL: 4, WalkR: 8, Theta: 0.02, Seed: 7, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.BuildIndexes(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return eng
}

// TestMaterializedSkippedCounterPinned is the satellite regression test:
// every skipped topic of a materialized-rung search increments
// pit_materialized_skipped_topics_total exactly once. A failing
// summarizer sends the planned query down to that rung; the failed full
// attempt skips nothing.
func TestMaterializedSkippedCounterPinned(t *testing.T) {
	eng := plannedEngine(t)
	related := eng.Space().Related("tag000")
	if _, err := eng.Summarize(context.Background(), MethodLRW, related[0]); err != nil {
		t.Fatal(err)
	}
	eng.SetSummarizer(MethodLRW, failSummarizer(fmt.Errorf("kernel down")))
	want := uint64(len(related) - 1)

	cached := Query{Text: "tag000", User: 3, K: 2}
	ans, err := eng.Run(context.Background(), cached)
	if err != nil || ans.Outcome.Complete || ans.Outcome.Tier != TierMaterialized {
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

// TestRunHoldsGateAcrossRerank is the regression test for the per-call
// gate: a diversified search used to take and release the query gate
// for the search and again for every result's re-rank lookup, so an
// engine retired in between failed the request with ErrNotReady after
// the whole search had run. Run holds the gate once: a retirement that
// begins mid-request waits, and the request either completes or was
// refused before any work.
func TestRunHoldsGateAcrossRerank(t *testing.T) {
	eng := plannedEngine(t)
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

// TestRetireDrainsBuiltEngine: every engine gates, with no opt-in.
// Retire on a built (heap) engine waits for a Run admitted before it —
// which completes at full fidelity — and afterwards the engine refuses
// with ErrNotReady before any build.
func TestRetireDrainsBuiltEngine(t *testing.T) {
	eng := plannedEngine(t)
	var builds atomic.Int32
	entered, proceed := make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { close(proceed) })
	t.Cleanup(release)
	eng.SetSummarizer(MethodLRW, summarizeFunc(func(_ context.Context, id topics.TopicID) (summary.Summary, error) {
		if builds.Add(1) == 1 {
			close(entered)
			<-proceed
		}
		return dummySum(id), nil
	}))
	type result struct {
		ans Answer
		err error
	}
	ran := make(chan result, 1)
	go func() {
		ans, err := eng.Run(context.Background(), Query{Text: "tag000", User: 3, K: 2, Fidelity: FidelityFull})
		ran <- result{ans, err}
	}()
	<-entered

	retired := make(chan struct{})
	go func() {
		eng.Retire()
		close(retired)
	}()
	for { // wait until the gate refuses new top-level holds
		select {
		case <-retired:
			t.Fatal("Retire returned while a Run was in flight")
		default:
		}
		_, held, err := eng.Hold(context.Background())
		if err != nil {
			break
		}
		held()
		time.Sleep(time.Millisecond)
	}
	release()
	res := <-ran
	if res.err != nil || len(res.ans.Results) != 2 {
		t.Fatalf("Run admitted before the retirement: %d results, err %v; want a complete answer", len(res.ans.Results), res.err)
	}
	<-retired
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
	ctx := context.Background()
	o, err := Static(eng)().Open(ctx, OpenRequest{Method: MethodLRW, Topics: eng.Space().Related("tag001"), User: 3})
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
	o.Done()
	<-retired
}

func TestTierAndPolicyStrings(t *testing.T) {
	want := map[Tier]string{
		TierFull:         "full",
		TierMaterialized: "materialized",
		TierUnavailable:  "unavailable",
	}
	for tier, s := range want {
		if got := tier.String(); got != s {
			t.Errorf("Tier(%d).String() = %q, want %q", int(tier), got, s)
		}
	}
	if len(Tiers) != 3 {
		t.Fatalf("Tiers has %d entries, want 3", len(Tiers))
	}
}
