package singleflight

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDoDeduplicates: N concurrent callers on one key run fn exactly
// once, and everyone sees the same value.
func TestDoDeduplicates(t *testing.T) {
	var g Group[string, int]
	var calls atomic.Int32
	gate := make(chan struct{})

	const workers = 16
	var wg sync.WaitGroup
	vals := make([]int, workers)
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			vals[w], errs[w], _ = g.Do(context.Background(), "k", func(context.Context) (int, error) {
				<-gate // hold the flight open until all workers joined
				return int(calls.Add(1)), nil
			})
		}(w)
	}
	// The first worker holds the flight open at the gate; once every
	// other one has joined it, releasing the gate lets the one shared
	// call finish.
	for g.Stats().DedupedWaits < workers-1 {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if vals[w] != 1 {
			t.Errorf("worker %d got %d, want 1", w, vals[w])
		}
	}
}

// TestWaiterCancellationDoesNotAbortCall: a waiter whose ctx is
// canceled unblocks with ctx.Err() while the shared call keeps running
// and delivers its result to the patient waiter.
func TestWaiterCancellationDoesNotAbortCall(t *testing.T) {
	var g Group[string, string]
	release := make(chan struct{})
	inFn := make(chan struct{})
	var fnCtxErr error
	var mu sync.Mutex

	// Patient caller starts the flight.
	type res struct {
		v   string
		err error
	}
	patient := make(chan res, 1)
	go func() {
		v, err, _ := g.Do(context.Background(), "k", func(ctx context.Context) (string, error) {
			close(inFn)
			<-release
			mu.Lock()
			fnCtxErr = ctx.Err()
			mu.Unlock()
			return "built", nil
		})
		patient <- res{v, err}
	}()
	<-inFn

	// Impatient waiter joins, then its context is canceled.
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for g.Stats().DedupedWaits == 0 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	_, err, shared := g.Do(ctx, "k", func(context.Context) (string, error) {
		t.Error("second fn must not run")
		return "", nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("impatient waiter got %v, want context.Canceled", err)
	}
	if !shared {
		t.Error("impatient waiter should report shared")
	}

	// The build was not aborted by the waiter's cancellation.
	close(release)
	r := <-patient
	if r.err != nil || r.v != "built" {
		t.Fatalf("patient waiter got (%q, %v), want (built, nil)", r.v, r.err)
	}
	mu.Lock()
	defer mu.Unlock()
	if fnCtxErr != nil {
		t.Errorf("fn observed ctx error %v; its context must be detached from waiters", fnCtxErr)
	}
}

// TestCallerCancellationDetached: even the *initiating* caller's
// cancellation does not cancel fn's context.
func TestCallerCancellationDetached(t *testing.T) {
	var g Group[string, int]
	ctx, cancel := context.WithCancel(context.Background())
	inFn := make(chan struct{})
	release := make(chan struct{})
	fnErr := make(chan error, 1)
	done := make(chan error, 1)
	go func() {
		_, err, _ := g.Do(ctx, "k", func(fctx context.Context) (int, error) {
			close(inFn)
			<-release // outlive the initiator's cancellation
			fnErr <- fctx.Err()
			return 42, nil
		})
		done <- err
	}()
	<-inFn
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled initiator got %v, want context.Canceled", err)
	}
	close(release)
	if err := <-fnErr; err != nil {
		t.Errorf("fn observed ctx error %v after initiator canceled; must be detached", err)
	}
	// The key is forgotten once the flight drains: a later Do leads a
	// fresh call. A Do that joins the draining flight returns only after
	// it released the key, so the one after it must lead.
	leaders := g.Stats().Leaders
	seven := func(context.Context) (int, error) { return 7, nil }
	v, err, shared := g.Do(context.Background(), "k", seven)
	if shared {
		v, err, shared = g.Do(context.Background(), "k", seven)
	}
	if shared || err != nil || v != 7 {
		t.Fatalf("later Do got (%d, %v, shared=%v), want (7, nil, false): the key was never forgotten", v, err, shared)
	}
	if got := g.Stats().Leaders; got != leaders+1 {
		t.Errorf("Leaders = %d after the later Do, want %d", got, leaders+1)
	}
}

// TestErrorsPropagateAndAreNotCached: an error reaches every concurrent
// waiter, but the next Do after completion retries fresh.
func TestErrorsPropagateAndAreNotCached(t *testing.T) {
	var g Group[int, int]
	boom := errors.New("boom")
	attempt := 0
	_, err, _ := g.Do(context.Background(), 7, func(context.Context) (int, error) {
		attempt++
		return 0, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	v, err, _ := g.Do(context.Background(), 7, func(context.Context) (int, error) {
		attempt++
		return attempt, nil
	})
	if err != nil || v != 2 {
		t.Fatalf("retry got (%d, %v), want (2, nil)", v, err)
	}
}

// TestDistinctKeysRunIndependently: different keys never share a call.
func TestDistinctKeysRunIndependently(t *testing.T) {
	var g Group[int, int]
	var wg sync.WaitGroup
	var calls atomic.Int32
	for k := 0; k < 8; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			v, err, _ := g.Do(context.Background(), k, func(context.Context) (int, error) {
				calls.Add(1)
				return k * 10, nil
			})
			if err != nil || v != k*10 {
				t.Errorf("key %d got (%d, %v)", k, v, err)
			}
		}(k)
	}
	wg.Wait()
	if calls.Load() != 8 {
		t.Errorf("ran %d calls, want 8", calls.Load())
	}
}

// TestBaseCancellationCancelsCall: a Group with a Base lifecycle
// context keeps ignoring waiter cancellation, but canceling Base (owner
// shutdown) cancels the in-flight call's context.
func TestBaseCancellationCancelsCall(t *testing.T) {
	base, cancelBase := context.WithCancel(context.Background())
	defer cancelBase()
	var g Group[string, int]
	g.Base = base

	inFn := make(chan struct{})
	callErr := make(chan error, 1)
	go func() {
		_, err, _ := g.Do(context.Background(), "k", func(ctx context.Context) (int, error) {
			close(inFn)
			<-ctx.Done()
			return 0, ctx.Err()
		})
		callErr <- err
	}()
	<-inFn

	// A waiter hanging up still must not cancel the call.
	wctx, wcancel := context.WithCancel(context.Background())
	wcancel()
	if _, err, shared := g.Do(wctx, "k", func(context.Context) (int, error) {
		t.Error("second fn must not run")
		return 0, nil
	}); !errors.Is(err, context.Canceled) || !shared {
		t.Fatalf("canceled waiter got (err=%v, shared=%v), want (context.Canceled, true)", err, shared)
	}
	select {
	case err := <-callErr:
		t.Fatalf("call ended after a waiter hung up: %v — only Base may cancel it", err)
	case <-time.After(20 * time.Millisecond):
	}

	// Base cancellation is the one signal that reaches the call.
	cancelBase()
	select {
	case err := <-callErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("call after Base cancellation returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call never observed Base cancellation")
	}
}

// TestPanicBecomesError: a panicking fn is converted into an error for
// every waiter instead of crashing the process or wedging the flight,
// and the error carries the panic's stack trace so the bug stays
// attributable from logs.
func TestPanicBecomesError(t *testing.T) {
	var g Group[string, int]
	_, err, _ := g.Do(context.Background(), "k", func(context.Context) (int, error) {
		panic("kaboom")
	})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("got %v, want panic error mentioning kaboom", err)
	}
	if !strings.Contains(err.Error(), "goroutine") || !strings.Contains(err.Error(), "singleflight") {
		t.Fatalf("panic error lacks a stack trace: %v", err)
	}
	// The key is usable again.
	v, err, _ := g.Do(context.Background(), "k", func(context.Context) (int, error) { return 5, nil })
	if err != nil || v != 5 {
		t.Fatalf("post-panic Do got (%d, %v)", v, err)
	}
}

// TestStatsCountLeadersAndWaits: the lifetime counters distinguish the
// caller that executed fn from the callers deduplicated onto it, and
// count recovered panics — the seam the observability layer exports as
// the singleflight dedup ratio.
func TestStatsCountLeadersAndWaits(t *testing.T) {
	var g Group[string, int]
	gate := make(chan struct{})
	leaderIn := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, _ = g.Do(context.Background(), "k", func(context.Context) (int, error) {
			close(leaderIn)
			<-gate
			return 1, nil
		})
	}()
	<-leaderIn // fn is running: the flight slot is occupied

	const joiners = 3
	for w := 0; w < joiners; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, _ = g.Do(context.Background(), "k", func(context.Context) (int, error) {
				t.Error("joiner executed fn despite an in-flight call")
				return 0, nil
			})
		}()
	}
	// Joiners increment dedupedWaits before blocking on the call; poll
	// until all three have registered, then release the leader.
	for deadline := time.Now().Add(5 * time.Second); g.Stats().DedupedWaits < joiners; {
		if time.Now().After(deadline) {
			t.Fatalf("joiners never registered: %+v", g.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	st := g.Stats()
	if st.Leaders != 1 || st.DedupedWaits != joiners {
		t.Errorf("stats = %+v, want 1 leader and %d deduped waits", st, joiners)
	}
	if st.Panics != 0 {
		t.Errorf("panics = %d, want 0", st.Panics)
	}

	// A panicking call is counted.
	_, err, _ := g.Do(context.Background(), "p", func(context.Context) (int, error) {
		panic("boom")
	})
	if err == nil {
		t.Fatal("panicking call returned nil error")
	}
	if st := g.Stats(); st.Panics != 1 || st.Leaders != 2 {
		t.Errorf("stats after panic = %+v, want Panics=1 Leaders=2", st)
	}
}

// gatedBlock returns a DoMany fn that records the keys it led, signals
// entered, and holds until release closes; every led key k gets value
// k*10.
func gatedBlock(led *[]int, entered, release chan struct{}) func(context.Context, []int, []int, []error) {
	return func(_ context.Context, keys []int, vals []int, _ []error) {
		*led = append(*led, keys...)
		close(entered)
		<-release
		for i, k := range keys {
			vals[i] = k * 10
		}
	}
}

// TestDoManyLeadsPerKey: a block leads exactly the keys nobody else has
// in flight and waits on the rest, and the counters account per key —
// one leader per led key, one dedup wait per joined key.
func TestDoManyLeadsPerKey(t *testing.T) {
	var g Group[int, int]
	entered, release := make(chan struct{}), make(chan struct{})
	doDone := make(chan int, 1)
	go func() {
		v, _, _ := g.Do(context.Background(), 2, func(context.Context) (int, error) {
			close(entered)
			<-release
			return 99, nil
		})
		doDone <- v
	}()
	<-entered

	var led []int
	blockIn := make(chan struct{})
	out := make(chan []Result[int], 1)
	go func() {
		out <- g.DoMany(context.Background(), []int{1, 2, 3}, gatedBlock(&led, blockIn, release))
	}()
	<-blockIn
	if st := g.Stats(); st.Leaders != 3 || st.DedupedWaits != 1 {
		t.Errorf("stats = %+v, want 3 leaders (Do's key, the block's two) and 1 dedup wait", st)
	}
	close(release)
	res := <-out
	if <-doDone != 99 {
		t.Fatal("the single-key Do lost its value")
	}
	if !slices.Equal(led, []int{1, 3}) {
		t.Fatalf("the block led %v, want [1 3]", led)
	}
	want := []Result[int]{{Val: 10}, {Val: 99, Shared: true}, {Val: 30}}
	if !slices.Equal(res, want) {
		t.Fatalf("results %+v, want %+v", res, want)
	}
}

// TestDoRacingDoManyBuildsOnce: a single-key Do arriving while a block
// holds its key joins the block's execution instead of running its own.
func TestDoRacingDoManyBuildsOnce(t *testing.T) {
	var g Group[int, int]
	var led []int
	entered, release := make(chan struct{}), make(chan struct{})
	out := make(chan []Result[int], 1)
	go func() {
		out <- g.DoMany(context.Background(), []int{4, 5, 6, 7}, gatedBlock(&led, entered, release))
	}()
	<-entered
	doOut := make(chan Result[int], 1)
	go func() {
		v, err, shared := g.Do(context.Background(), 6, func(context.Context) (int, error) {
			t.Error("Do ran its own fn for a key the block holds")
			return 0, nil
		})
		doOut <- Result[int]{v, err, shared}
	}()
	for g.Stats().DedupedWaits == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	<-out
	if r := <-doOut; r != (Result[int]{Val: 60, Shared: true}) {
		t.Fatalf("Do racing the block got %+v, want the block's 60, shared", r)
	}
	if st := g.Stats(); st.Leaders != 4 || st.DedupedWaits != 1 {
		t.Errorf("stats = %+v, want 4 leaders and 1 dedup wait", st)
	}
}

// TestDoManyWaiterCancellationKeepsBlock: a waiter on one of a block's
// keys hanging up — and the block's own caller hanging up — returns
// ctx.Err() to them while the block runs on, detached, for everyone else.
func TestDoManyWaiterCancellationKeepsBlock(t *testing.T) {
	var g Group[int, int]
	entered, release := make(chan struct{}), make(chan struct{})
	fnErr := make(chan error, 1)
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	out := make(chan []Result[int], 1)
	go func() {
		out <- g.DoMany(leaderCtx, []int{1, 2}, func(ctx context.Context, keys []int, vals []int, _ []error) {
			close(entered)
			<-release
			fnErr <- ctx.Err()
			vals[0], vals[1] = 10, 20
		})
	}()
	<-entered

	wctx, wcancel := context.WithCancel(context.Background())
	wcancel()
	if r := g.DoMany(wctx, []int{2}, nil); !errors.Is(r[0].Err, context.Canceled) || !r[0].Shared {
		t.Fatalf("cancelled waiter got %+v, want context.Canceled, shared", r[0])
	}
	patient := make(chan []Result[int], 1)
	go func() { patient <- g.DoMany(context.Background(), []int{1}, nil) }()
	for g.Stats().DedupedWaits < 2 {
		time.Sleep(time.Millisecond)
	}
	cancelLeader()
	for _, r := range <-out {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("the block's cancelled caller got %+v, want context.Canceled", r)
		}
	}
	close(release)
	if err := <-fnErr; err != nil {
		t.Fatalf("the block observed %v; only Base may cancel it", err)
	}
	if r := <-patient; r[0] != (Result[int]{Val: 10, Shared: true}) {
		t.Fatalf("patient waiter got %+v, want the block's 10", r[0])
	}
}

// TestDoManyBaseCancellationStopsBlock: owner shutdown reaches a running
// block, and every key of it reports the cancellation.
func TestDoManyBaseCancellationStopsBlock(t *testing.T) {
	base, cancelBase := context.WithCancel(context.Background())
	defer cancelBase()
	g := Group[int, int]{Base: base}
	entered := make(chan struct{})
	out := make(chan []Result[int], 1)
	go func() {
		out <- g.DoMany(context.Background(), []int{1, 2, 3}, func(ctx context.Context, _ []int, _ []int, errs []error) {
			close(entered)
			<-ctx.Done()
			for i := range errs {
				errs[i] = ctx.Err()
			}
		})
	}()
	<-entered
	cancelBase()
	select {
	case res := <-out:
		for i, r := range res {
			if !errors.Is(r.Err, context.Canceled) {
				t.Fatalf("key %d after Base cancellation: %+v, want context.Canceled", i, r)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the block never observed Base cancellation")
	}
}

// TestDoManyPanicReachesEveryKey: a panicking block delivers the panic,
// with its stack, to its caller for every key and to a waiter on any one
// of them; the keys are free again afterwards.
func TestDoManyPanicReachesEveryKey(t *testing.T) {
	var g Group[int, int]
	entered, release := make(chan struct{}), make(chan struct{})
	out := make(chan []Result[int], 1)
	go func() {
		out <- g.DoMany(context.Background(), []int{1, 2, 3}, func(_ context.Context, _ []int, vals []int, _ []error) {
			vals[0] = 10
			close(entered)
			<-release
			panic("kaboom")
		})
	}()
	<-entered
	waiter := make(chan []Result[int], 1)
	go func() { waiter <- g.DoMany(context.Background(), []int{3}, nil) }()
	for g.Stats().DedupedWaits == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	for _, res := range [][]Result[int]{<-out, <-waiter} {
		for _, r := range res {
			if r.Err == nil || !strings.Contains(r.Err.Error(), "kaboom") || !strings.Contains(r.Err.Error(), "goroutine") || r.Val != 0 {
				t.Fatalf("after a panic a key reported %+v, want the panic with its stack and no value", r)
			}
		}
	}
	if st := g.Stats(); st.Panics != 1 {
		t.Errorf("panics = %d, want 1 per execution", st.Panics)
	}
	if r := g.DoMany(context.Background(), []int{1, 2, 3}, func(_ context.Context, _ []int, vals []int, _ []error) { vals[1] = 5 }); r[1].Val != 5 {
		t.Fatalf("post-panic block got %+v", r)
	}
}

// TestDoManyOutcomesArePerKey: a key whose slot carries an error fails
// alone; its siblings deliver their values.
func TestDoManyOutcomesArePerKey(t *testing.T) {
	var g Group[int, int]
	boom := errors.New("boom")
	res := g.DoMany(context.Background(), []int{1, 2, 3}, func(_ context.Context, keys []int, vals []int, errs []error) {
		for i, k := range keys {
			if k == 2 {
				errs[i] = boom
				continue
			}
			vals[i] = k * 10
		}
	})
	want := []Result[int]{{Val: 10}, {Err: boom}, {Val: 30}}
	if !slices.Equal(res, want) {
		t.Fatalf("results %+v, want %+v", res, want)
	}
}

// TestDoManyDuplicateKeys: a key listed twice is led once — fn sees it
// once, the caller does not wait on its own flight, and both positions
// get its value — and a duplicate of a key someone else leads is one
// dedup wait, not two.
func TestDoManyDuplicateKeys(t *testing.T) {
	var g Group[int, int]
	var calls [][]int
	done := make(chan []Result[int], 1)
	go func() {
		done <- g.DoMany(context.Background(), []int{1, 2, 1, 1}, func(_ context.Context, keys []int, vals []int, _ []error) {
			calls = append(calls, slices.Clone(keys))
			for i, k := range keys {
				vals[i] = k * 10
			}
		})
	}()
	select {
	case res := <-done:
		want := []Result[int]{{Val: 10}, {Val: 20}, {Val: 10}, {Val: 10}}
		if !slices.Equal(res, want) || len(calls) != 1 || !slices.Equal(calls[0], []int{1, 2}) {
			t.Fatalf("results %+v from calls %v, want %+v from one call over [1 2]", res, calls, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a block listing a key twice waited on its own flight")
	}
	if st := g.Stats(); st.Leaders != 2 {
		t.Errorf("leaders = %d, want 2 (one per distinct key)", st.Leaders)
	}

	var led []int
	entered, release := make(chan struct{}), make(chan struct{})
	go g.DoMany(context.Background(), []int{9}, gatedBlock(&led, entered, release))
	<-entered
	waited := make(chan []Result[int], 1)
	go func() { waited <- g.DoMany(context.Background(), []int{9, 9}, nil) }()
	for g.Stats().DedupedWaits == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if res := <-waited; res[0] != (Result[int]{Val: 90, Shared: true}) || res[1] != res[0] {
		t.Fatalf("a block listing an in-flight key twice got %+v", res)
	}
	if st := g.Stats(); st.DedupedWaits != 1 {
		t.Errorf("dedup waits = %d, want 1 for the key listed twice", st.DedupedWaits)
	}
}
