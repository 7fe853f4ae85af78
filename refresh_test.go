package repro

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/stream"
	"repro/internal/topics"
)

// TestRefreshEqualsRebuild is the §4.4 contract as a property: whatever
// sequence of batches a streamed deployment has applied, every shard's
// walk index, Γ index and rankings equal those of an engine built from
// scratch over the graph the deployment now serves — walks, every H row,
// every reach list, every Γ row with its propagation bits and potential
// marks, and the scores of real queries, bit for bit. The batches are
// applied consecutively through one stream.Pipeline, so a flush that
// leaves anything stale behind poisons every later comparison, and they
// mix everything the update surface accepts: new-edge upserts,
// weight-only upserts, deletes, deletes of absent edges, duplicate keys
// within a batch, node growth, all under time decay on a fake clock.
func TestRefreshEqualsRebuild(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { refreshEqualsRebuild(t, shards) })
	}
}

const refreshBatches = 50

func refreshEqualsRebuild(t *testing.T, shards int) {
	ctx := context.Background()
	g, err := dataset.GenerateGraph(dataset.GraphConfig{Nodes: 600, MinOutDegree: 2, MaxOutDegree: 6, Seed: 26})
	if err != nil {
		t.Fatal(err)
	}
	space, err := dataset.GenerateTopics(g, dataset.TopicConfig{Tags: 3, TopicsPerTag: 6, MeanTopicNodes: 12, Locality: 0.8, Seed: 26})
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{WalkL: 4, WalkR: 8, Theta: 0.02, Seed: 26}

	// Stood up as pitserve does it: one index build, shared by every
	// shard, each shard warm on the topics it would own.
	engines := make([]*core.Engine, shards)
	for i := range engines {
		eng, err := core.New(g, space, opts)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			err = eng.BuildIndexes(ctx)
		} else {
			err = eng.ShareIndexes(engines[0])
		}
		if err != nil {
			t.Fatal(err)
		}
		for ti := i; ti < space.NumTopics(); ti += shards {
			for _, m := range []core.Method{core.MethodLRW, core.MethodRCL} {
				if _, err := eng.Summarize(ctx, m, topics.TopicID(ti)); err != nil {
					t.Fatal(err)
				}
			}
		}
		engines[i] = eng
	}

	now := time.Unix(1_700_000_000, 0)
	var applied stream.ApplyResult
	pipe, err := stream.NewSet(engines, stream.Config{
		BatchSize:     1 << 20, // flushes are explicit
		DecayHalfLife: time.Minute,
		Clock:         func() time.Time { return now },
		OnApply:       func(_ context.Context, r stream.ApplyResult) { applied = r },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		pipe.Stop()
		pipe.Current().Close()
	}()

	rng := rand.New(rand.NewSource(26))
	for k := 0; k < refreshBatches; k++ {
		cur := pipe.Current().Graph()
		grow := 0
		if k%10 == 9 {
			grow = 1 + rng.Intn(2)
			if err := pipe.GrowNodes(grow); err != nil {
				t.Fatal(err)
			}
		}
		for _, ev := range refreshBatch(rng, cur, grow, k) {
			now = now.Add(time.Duration(1+rng.Intn(20)) * time.Second) // each event decays by its own age
			if err := pipe.Submit(ev); err != nil {
				t.Fatalf("batch %d: %v", k, err)
			}
		}
		now = now.Add(5 * time.Second)
		if err := pipe.Flush(ctx); err != nil {
			t.Fatalf("batch %d: %v", k, err)
		}

		served := pipe.Current().Graph()
		if served.NumNodes() != cur.NumNodes()+grow {
			t.Fatalf("batch %d: %d nodes served, want %d", k, served.NumNodes(), cur.NumNodes()+grow)
		}
		// Equal digests prove nothing about the patch path if every flush
		// quietly fell back to a build: the patch sizes must follow the
		// batch.
		n := served.NumNodes()
		switch resampled, rows := applied.Stats.Resampled, applied.Stats.PatchedRows; {
		case applied.Seq != uint64(k+1):
			t.Fatalf("batch %d: OnApply last saw batch %d", k, applied.Seq)
		case grow > 0: // a grown node set is rebuilt
			if resampled != n || rows != n {
				t.Errorf("batch %d grew the graph: resampled %d starts, patched %d rows, want all %d", k, resampled, rows, n)
			}
		case k%10 == 3: // weights only: walks are unweighted, Γ is not
			if resampled != 0 || rows <= 0 || rows >= n {
				t.Errorf("batch %d changed weights only: resampled %d starts (want 0), patched %d of %d rows (want some)", k, resampled, rows, n)
			}
		case k%10 == 6: // deletes of absent edges change nothing
			if resampled != 0 || rows != 0 {
				t.Errorf("batch %d changed nothing: resampled %d starts, patched %d rows", k, resampled, rows)
			}
		default:
			if resampled <= 0 || resampled >= n || rows <= 0 || rows >= n {
				t.Errorf("batch %d: resampled %d starts, patched %d rows of %d; want some and not all of each", k, resampled, rows, n)
			}
		}
		ref, err := core.New(served, space, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.BuildIndexes(ctx); err != nil {
			t.Fatal(err)
		}
		wantWalks, wantProp := walkFingerprint(served, ref.Walks()), propFingerprint(served, ref.Prop())
		for i, eng := range pipe.Current().Engines {
			if eng.Graph() != served {
				t.Fatalf("batch %d: shard %d serves another graph than shard 0", k, i)
			}
			if got := walkFingerprint(served, eng.Walks()); got != wantWalks {
				t.Fatalf("batch %d shard %d: walk index digest %s, a from-scratch build gives %s", k, i, got, wantWalks)
			}
			if got := propFingerprint(served, eng.Prop()); got != wantProp {
				t.Fatalf("batch %d shard %d: Γ digest %s, a from-scratch build gives %s", k, i, got, wantProp)
			}
			for _, m := range []core.Method{core.MethodLRW, core.MethodRCL} {
				q := core.Query{
					Method: m, Text: fmt.Sprintf("tag%03d", k%3), K: 4, Fidelity: core.FidelityFull,
					User: graph.NodeID(rng.Intn(served.NumNodes())),
				}
				want, err := ref.Run(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				got, err := eng.Run(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got.Ranking(), want.Ranking()) {
					t.Fatalf("batch %d shard %d: %v for user %d ranks %v, a from-scratch engine %v", k, i, m, q.User, got.Ranking(), want.Ranking())
				}
			}
		}
		ref.Close()
	}
}

// refreshBatch draws batch k over the current graph g (about to grow by
// grow nodes). Batches 3, 13, … change weights only and batches 6, 16, …
// only delete edges g does not have; every other batch makes at least
// one structural change.
func refreshBatch(rng *rand.Rand, g *graph.Graph, grow, k int) []stream.Event {
	n := g.NumNodes()
	edges := g.Edges()
	absent := func() (from, to graph.NodeID) {
		for {
			from, to = graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
			if from != to && !g.HasEdge(from, to) {
				return from, to
			}
		}
	}
	weight := func() float64 { return 0.05 + 0.9*rng.Float64() }
	var evs []stream.Event
	reweigh := func() {
		e := edges[rng.Intn(len(edges))]
		evs = append(evs, stream.Event{From: e.From, To: e.To, Weight: weight()})
	}
	deleteAbsent := func() {
		from, to := absent()
		evs = append(evs, stream.Event{From: from, To: to})
	}
	switch k % 10 {
	case 3:
		reweigh()
		reweigh()
		return evs
	case 6:
		deleteAbsent()
		deleteAbsent()
		return evs
	}
	for i := 1 + rng.Intn(3); i > 0; i-- { // new edges
		from, to := absent()
		evs = append(evs, stream.Event{From: from, To: to, Weight: weight()})
	}
	for i := rng.Intn(3); i > 0; i-- {
		reweigh()
	}
	for i := rng.Intn(3); i > 0; i-- { // deletes of edges g has
		e := edges[rng.Intn(len(edges))]
		evs = append(evs, stream.Event{From: e.From, To: e.To})
	}
	if rng.Intn(2) == 0 {
		deleteAbsent()
	}
	// Duplicate keys resolve last-write-wins: a new edge upserted twice,
	// a new edge upserted then deleted, an old edge deleted then restored.
	from, to := absent()
	switch rng.Intn(3) {
	case 0:
		evs = append(evs, stream.Event{From: from, To: to, Weight: weight()}, stream.Event{From: from, To: to, Weight: weight()})
	case 1:
		evs = append(evs, stream.Event{From: from, To: to, Weight: weight()}, stream.Event{From: from, To: to})
	case 2:
		e := edges[rng.Intn(len(edges))]
		evs = append(evs, stream.Event{From: e.From, To: e.To}, stream.Event{From: e.From, To: e.To, Weight: weight()})
	}
	for v := n; v < n+grow; v++ { // a new user follows and is followed
		evs = append(evs,
			stream.Event{From: graph.NodeID(v), To: graph.NodeID(rng.Intn(n)), Weight: weight()},
			stream.Event{From: graph.NodeID(rng.Intn(n)), To: graph.NodeID(v), Weight: weight()})
	}
	return evs
}
