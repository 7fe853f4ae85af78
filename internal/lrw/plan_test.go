package lrw

// The propagation plan's two promises that no digest can see: a cancelled
// build is never trusted by the next caller, and re-keying a warm scratch
// to another (graph, walks) pair allocates nothing.

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/randwalk"
	"repro/internal/summary"
	"repro/internal/topics"
)

// countdownCtx turns done at its (after+1)-th Err call — a cancellation
// that lands at a chosen check rather than at a chosen time.
type countdownCtx struct {
	context.Context
	after, calls int
}

func (c *countdownCtx) Err() error {
	c.calls++
	if c.calls > c.after {
		return context.Canceled
	}
	return nil
}

// summarizeOn is Summarizer.Summarize on a scratch the test owns.
func summarizeOn(ctx context.Context, g *graph.Graph, space *topics.Space, walks *randwalk.Index, t topics.TopicID, sc *scratch) (summary.Summary, error) {
	var out [1]summary.Summary
	err := summarizeBlock(ctx, g, space, walks, []topics.TopicID{t}, Options{}, sc, out[:])
	return out[0], err
}

// TestCancellationLeavesScratchUsable cancels one summarization at every
// context check it makes in turn — inside the plan build, between Equation
// 5 iterations, in the ranking and in the migration — on a scratch that
// holds another pair's plan, and then requires the golden digest from that
// same scratch: whatever the aborted call left half-written must be rebuilt,
// not reused. Then the same for a block of topics.
func TestCancellationLeavesScratchUsable(t *testing.T) {
	g, space, walks := goldenWorld(t)
	other, err := randwalk.Build(context.Background(), g, randwalk.Options{L: walks.L, R: walks.R, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	bg := context.Background()

	counter := &countdownCtx{Context: bg, after: 1 << 30}
	if _, err := summarizeOn(counter, g, space, other, 0, new(scratch)); err != nil {
		t.Fatal(err)
	}
	checks := counter.calls
	if checks < 2*walks.L+2 {
		t.Fatalf("a cold summarization made %d context checks, want one per plan iteration, one per Equation 5 iteration, and the ranking's and migration's", checks)
	}

	sc := new(scratch)
	for k := 0; k < checks; k++ {
		// Warm on (g, walks), then abort a call for (g, other) at check k.
		if _, err := summarizeOn(bg, g, space, walks, 0, sc); err != nil {
			t.Fatal(err)
		}
		_, err := summarizeOn(&countdownCtx{Context: bg, after: k}, g, space, other, topics.TopicID(k%space.NumTopics()), sc)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled at check %d of %d: err = %v, want context.Canceled", k, checks, err)
		}
		if k < walks.L && sc.plan.g != nil {
			t.Fatalf("cancelled at check %d, inside the plan build, yet the plan is marked valid", k)
		}
		sums := make([]summary.Summary, space.NumTopics())
		for i := range sums {
			if sums[i], err = summarizeOn(bg, g, space, walks, topics.TopicID(i), sc); err != nil {
				t.Fatal(err)
			}
		}
		if got := summary.Digest(sums); got != goldenDefaultsDigest {
			t.Fatalf("after a cancellation at check %d the same scratch summarized to %s, want the golden %s", k, got, goldenDefaultsDigest)
		}
	}

	// The same for a block of every topic — two 4-lane passes and a
	// one-lane one — cancelled at each of its checks in turn: it returns no
	// summary at all, and the scratch still yields the golden digest, by
	// block and topic by topic.
	all := make([]topics.TopicID, space.NumTopics())
	for i := range all {
		all[i] = topics.TopicID(i)
	}
	counter = &countdownCtx{Context: bg, after: 1 << 30}
	if _, err := blockOn(counter, g, space, other, all, new(scratch)); err != nil {
		t.Fatal(err)
	}
	checks = counter.calls
	for k := 0; k < checks; k++ {
		if _, err := blockOn(bg, g, space, walks, all, sc); err != nil {
			t.Fatal(err)
		}
		out, err := blockOn(&countdownCtx{Context: bg, after: k}, g, space, other, all, sc)
		if !errors.Is(err, context.Canceled) || out != nil {
			t.Fatalf("block cancelled at check %d of %d: %d summaries, err = %v, want none and context.Canceled", k, checks, len(out), err)
		}
		if k < walks.L && sc.plan.g != nil {
			t.Fatalf("block cancelled at check %d, inside the plan build, yet the plan is marked valid", k)
		}
		sums, err := blockOn(bg, g, space, walks, all, sc)
		if err != nil {
			t.Fatal(err)
		}
		if got := summary.Digest(sums); got != goldenDefaultsDigest {
			t.Fatalf("after a block cancelled at check %d the same scratch summarized to %s, want the golden %s", k, got, goldenDefaultsDigest)
		}
	}

	// The exported paths report the same error.
	s, err := New(g, space, walks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(bg)
	cancel()
	if _, err := s.Summarize(cancelled, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("Summarize on a cancelled context: err = %v, want context.Canceled", err)
	}
	if out, err := s.SummarizeMany(cancelled, all); !errors.Is(err, context.Canceled) || out != nil {
		t.Fatalf("SummarizeMany on a cancelled context: %d summaries, err = %v, want none and context.Canceled", len(out), err)
	}
}

// blockOn is SummarizeMany on a scratch the test owns.
func blockOn(ctx context.Context, g *graph.Graph, space *topics.Space, walks *randwalk.Index, ts []topics.TopicID, sc *scratch) ([]summary.Summary, error) {
	out := make([]summary.Summary, len(ts))
	if err := summarizeBlock(ctx, g, space, walks, ts, Options{}, sc, out); err != nil {
		return nil, err
	}
	return out, nil
}

// TestRekeyAllocatesNothing is the guard on refresh cost: a streamed refresh
// hands every warm scratch a new (graph, walks) pair of the old one's size,
// and a plan rebuilt with fresh arrays (≈ 2.9 MB on the benchmark graph)
// moved a GC cycle into the next flush. Rebuilding must stay inside the
// capacity the scratch has, and a warm summarization at its two result
// allocations — for the lane buffers and a warm block as for one topic.
func TestRekeyAllocatesNothing(t *testing.T) {
	g, space, walks := goldenWorld(t)
	g2 := reweigh(rand.New(rand.NewSource(3)), g)
	walks2, err := randwalk.Build(context.Background(), g2, randwalk.Options{L: walks.L, R: walks.R, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	bg := context.Background()
	sc := new(scratch)
	// A lone topic's pass and a full block's: the lane buffers are the same.
	block := []topics.TopicID{0, 1, 2, 3}
	vts := make([][]graph.NodeID, len(block))
	for j, ti := range block {
		vts[j] = space.Nodes(ti)
	}
	for _, lanes := range [][][]graph.NodeID{vts[:1], vts} {
		rekey := func() {
			if _, err := scoresLanes(bg, g, walks, lanes, Options{}, sc); err != nil {
				t.Fatal(err)
			}
			if _, err := scoresLanes(bg, g2, walks2, lanes, Options{}, sc); err != nil {
				t.Fatal(err)
			}
		}
		rekey()
		if allocs := testing.AllocsPerRun(20, rekey); allocs != 0 {
			t.Errorf("re-keying a warm scratch's %d lane(s) between two pairs of equal size = %v allocs, want 0", len(lanes), allocs)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := summarizeOn(bg, g, space, walks, 0, sc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 2 {
		t.Errorf("warm summarization = %v allocs, want 2 (the weighted reps and the summary's copy)", allocs)
	}
	out := make([]summary.Summary, len(block))
	allocs = testing.AllocsPerRun(20, func() {
		if err := summarizeBlock(bg, g, space, walks, block, Options{}, sc, out); err != nil {
			t.Fatal(err)
		}
	})
	if want := float64(2 * len(block)); allocs != want {
		t.Errorf("warm block of %d = %v allocs, want %v (its output summaries only)", len(block), allocs, want)
	}
}
