package search

// Tests for PR 3's pooled per-query scratch state: defaults are pinned,
// arena reuse must never leak state between queries, concurrent
// queries over one Searcher must stay independent (run with -race), a
// pooled arena pins no summaries, and a warm query allocates only its
// result.

import (
	"context"
	"sync"
	"testing"

	"repro/internal/graph"
)

// TestOptionsDefaults pins the documented defaults — the doc comment and
// fill() drifted apart once (64 vs 256); this keeps them honest.
func TestOptionsDefaults(t *testing.T) {
	var o Options
	o.fill()
	if o.MaxExpandDepth != 3 {
		t.Errorf("MaxExpandDepth default = %d, want 3", o.MaxExpandDepth)
	}
	if o.MaxFrontier != 256 {
		t.Errorf("MaxFrontier default = %d, want 256", o.MaxFrontier)
	}
	neg := Options{MaxFrontier: -1}
	neg.fill()
	if neg.MaxFrontier != -1 {
		t.Errorf("negative MaxFrontier (unbounded) overwritten to %d", neg.MaxFrontier)
	}
	custom := Options{MaxExpandDepth: 7, MaxFrontier: 12}
	custom.fill()
	if custom.MaxExpandDepth != 7 || custom.MaxFrontier != 12 {
		t.Errorf("explicit options overwritten: %+v", custom)
	}
}

// TestScratchReuseDeterministic: repeated and interleaved queries through
// one Searcher (whose arena is recycled between them) return bit-identical
// results — pooled state must be fully reset per query.
func TestScratchReuseDeterministic(t *testing.T) {
	ixA, sumsA, userA := randomScenario(11)
	sA := newSearcher(t, ixA, Options{})
	ixB, sumsB, userB := randomScenario(12)
	sB := newSearcher(t, ixB, Options{})

	refA, err := sA.TopK(context.Background(), userA, sumsA, 3)
	if err != nil {
		t.Fatal(err)
	}
	refB, err := sB.TopK(context.Background(), userB, sumsB, 3)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 50; round++ {
		gotA, err := sA.TopK(context.Background(), userA, sumsA, 3)
		if err != nil {
			t.Fatal(err)
		}
		gotB, err := sB.TopK(context.Background(), userB, sumsB, 3)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, refA, gotA, round)
		assertSameResults(t, refB, gotB, round)
		// Also vary k so the arena sees different shapes back to back.
		if _, err := sA.TopK(context.Background(), userA, sumsA, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := sA.TopK(context.Background(), userA, sumsA[:1], 0); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentTopKIndependent: many goroutines hammer one Searcher with
// different users; every answer must match the single-threaded reference.
// Under -race this also proves arena recycling never shares live state.
func TestConcurrentTopKIndependent(t *testing.T) {
	ix, sums, _ := randomScenario(21)
	s := newSearcher(t, ix, Options{})
	n := ix.NumNodes()

	refs := make([][]Result, n)
	for u := 0; u < n; u++ {
		r, err := s.TopK(context.Background(), graph.NodeID(u), sums, 3)
		if err != nil {
			t.Fatal(err)
		}
		refs[u] = r
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 30; round++ {
				u := (w*13 + round) % n
				got, err := s.TopK(context.Background(), graph.NodeID(u), sums, 3)
				if err != nil {
					t.Errorf("worker %d user %d: %v", w, u, err)
					return
				}
				if len(got) != len(refs[u]) {
					t.Errorf("worker %d user %d: %d results, want %d", w, u, len(got), len(refs[u]))
					return
				}
				for i := range got {
					if got[i] != refs[u][i] {
						t.Errorf("worker %d user %d result %d: %+v vs %+v", w, u, i, got[i], refs[u][i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestScratchHoldsNoSummaryRefsAfterQuery is the regression test for
// the pool-pinning bug: after a query returns, the arena sitting in the
// pool must not alias any summary rep slice. Before the fix,
// sc.states[i].reps kept the last query's summaries reachable for as
// long as the scratch idled in the pool.
func TestScratchHoldsNoSummaryRefsAfterQuery(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool deliberately drops items under -race; pooled-scratch identity is not observable")
	}
	ix, sums, user := randomScenario(31)
	s := newSearcher(t, ix, Options{})
	// Two queries with different shapes, the second smaller, so a stale
	// tail entry (beyond the second query's states length) would be
	// caught too.
	if _, err := s.TopK(context.Background(), user, sums, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.TopK(context.Background(), user, sums[:1], 1); err != nil {
		t.Fatal(err)
	}
	sc, _ := s.pool.Get().(*scratch)
	if sc == nil {
		t.Fatal("pool did not return the scratch just released")
	}
	states := sc.states[:cap(sc.states)]
	for i := range states {
		if states[i].reps != nil {
			t.Errorf("pooled scratch state %d still aliases a summary rep slice (%d reps)", i, len(states[i].reps))
		}
		if states[i].consumed != nil {
			t.Errorf("pooled scratch state %d still holds a consumed sub-slice", i)
		}
	}
}

// TestSearchTopKInstrumentedAllocs pins the warm query path at exactly
// one allocation, the caller-visible result slice. The search itself
// is not instrumented: what a run did reaches metrics through Stats.
func TestSearchTopKInstrumentedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race, inflating the alloc count")
	}
	ix, sums, user := randomScenario(5)
	s := newSearcher(t, ix, Options{})
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.TopK(context.Background(), user, sums, 3); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("warm TopK = %v allocs/op, want 1 (the result slice)", allocs)
	}
}

func assertSameResults(t *testing.T, want, got []Result, round int) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("round %d: %d results, want %d", round, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("round %d result %d: %+v, want %+v", round, i, got[i], want[i])
		}
	}
}

// BenchmarkTopKWarm measures the steady-state query with a recycled
// arena — the allocs/op number PR 3's acceptance criteria track (the
// only remaining allocation should be the result slice).
func BenchmarkTopKWarm(b *testing.B) {
	ix, sums, user := randomScenario(5)
	s, err := New(ix, Options{})
	if err != nil {
		b.Fatal(err)
	}
	// Prime the arena so pool growth is outside the measurement.
	if _, err := s.TopK(context.Background(), user, sums, 3); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.TopK(context.Background(), user, sums, 3); err != nil {
			b.Fatal(err)
		}
	}
}
