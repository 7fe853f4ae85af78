package shard_test

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/search"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/topics"
)

// TestRequestSeesOneGeneration parks one request in the gap between two
// reads of the shard set while a Flush publishes the next generation in
// that gap. The flush's OnApply — after the publish, before the old
// generation is retired — waits for the request, so the old engines stay
// open to it whatever it does after the gap. The batch moves scores on
// both shards involved, so an answer merged from two generations equals
// neither one-engine reference; one generation equals one of them byte
// for byte. Runs under -race via `make chaos`.
func TestRequestSeesOneGeneration(t *testing.T) {
	g, space := world()
	opts := worldOptions()
	ctx := context.Background()

	// The batch moves scores on shards early and late.
	const n, early, late = 4, 1, 3
	const user = graph.NodeID(5)
	engines, err := shard.BuildEngines(ctx, g, space, opts, n)
	if err != nil {
		t.Fatal(err)
	}
	part, err := shard.NewPartitioner(space, n)
	if err != nil {
		t.Fatal(err)
	}

	// One strong edge into the user from a member of every topic the two
	// shards own: their scores for the user move.
	var events []stream.Event
	batch := dynamic.Batch{}
	for _, s := range []int{early, late} {
		for _, id := range part.Owned(s) {
			for _, v := range space.Nodes(id) {
				if v != user {
					events = append(events, stream.Event{From: v, To: user, Weight: 0.95})
					batch.Updates = append(batch.Updates, dynamic.EdgeUpdate{From: v, To: user, Weight: 0.95})
					break
				}
			}
		}
	}
	next, err := dynamic.Apply(g, batch)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]topics.TopicID, space.NumTopics())
	for i := range all {
		all[i] = topics.TopicID(i)
	}
	q := core.Query{Method: core.MethodLRW, Topics: all, User: user, Fidelity: core.FidelityFull}
	before := singleEngineRanking(t, g, space, opts, q)
	after := singleEngineRanking(t, next, space, opts, q)
	for _, s := range []int{early, late} {
		if !movedOn(part, s, before, after) {
			t.Fatalf("the batch moves no score on shard %d: a straddle would go unseen", s)
		}
	}

	var (
		armed     atomic.Bool
		inGap     = make(chan struct{}) // the request is parked in the gap
		published = make(chan struct{}) // generation g+1 serves
		done      = make(chan struct{}) // the request returned
	)
	set, err := stream.NewSet(engines, stream.Config{
		BatchSize: 1 << 20,
		OnApply: func(context.Context, stream.ApplyResult) {
			close(published)
			awaitOrFail(t, done, "the straddling request to finish")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Stop()

	// The seam: the request loads generation g, then parks before it
	// holds it until g+1 is published.
	var once sync.Once
	current := func() *core.Generation {
		gen := set.Current()
		if armed.Load() {
			once.Do(func() {
				close(inGap)
				<-published
			})
		}
		return gen
	}
	r, err := shard.New(part, current, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.WarmOwned(ctx, core.MethodLRW, core.WarmOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if err := set.Submit(events...); err != nil {
		t.Fatal(err)
	}

	armed.Store(true)
	var (
		got    core.Answer
		runErr error
	)
	go func() {
		defer close(done)
		got, runErr = r.Run(ctx, q)
	}()
	awaitOrFail(t, inGap, "the request to reach the gap")
	if err := set.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	<-done
	if runErr != nil {
		t.Fatal(runErr)
	}
	if rank := got.Ranking(); !sameRanking(rank, before) && !sameRanking(rank, after) {
		t.Fatalf("one request merged two generations:\n got: %v\n   g: %v\n g+1: %v", rank, before, after)
	}
	settled, err := r.Run(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "after the flush", after, settled.Ranking())
}

// singleEngineRanking answers q on one engine built over g from scratch.
func singleEngineRanking(t *testing.T, g *graph.Graph, space *topics.Space, opts core.Options, q core.Query) []search.Result {
	t.Helper()
	eng, err := core.New(g, space, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.BuildIndexes(context.Background()); err != nil {
		t.Fatal(err)
	}
	ans, err := eng.Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	return ans.Ranking()
}

// movedOn reports whether a topic shard s owns scores differently in a
// and b.
func movedOn(part *shard.Partitioner, s int, a, b []search.Result) bool {
	score := func(rs []search.Result, id topics.TopicID) uint64 {
		for _, r := range rs {
			if r.Topic == id {
				return math.Float64bits(r.Score)
			}
		}
		return 0
	}
	for _, id := range part.Owned(s) {
		if score(a, id) != score(b, id) {
			return true
		}
	}
	return false
}

// sameRanking is sameResults as a predicate.
func sameRanking(a, b []search.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Topic != b[i].Topic || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// awaitOrFail waits for ch, failing the test instead of hanging it.
func awaitOrFail(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(30 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}
