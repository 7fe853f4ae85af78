package dynamic

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/topics"
)

func baseGraph(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(6)
	b.MustAddEdge(0, 1, 0.5)
	b.MustAddEdge(1, 2, 0.4)
	b.MustAddEdge(2, 3, 0.3)
	b.MustAddEdge(4, 5, 0.2)
	return b.Build()
}

func TestApplyUpsertAndDelete(t *testing.T) {
	g := baseGraph(t)
	updated, err := Apply(g, Batch{Updates: []EdgeUpdate{
		{From: 0, To: 1, Weight: 0.9}, // re-weight
		{From: 1, To: 2, Weight: 0},   // delete
		{From: 3, To: 4, Weight: 0.7}, // insert
	}})
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := updated.EdgeWeight(0, 1); w != 0.9 {
		t.Errorf("re-weighted edge = %v, want 0.9", w)
	}
	if updated.HasEdge(1, 2) {
		t.Error("deleted edge survived")
	}
	if w, _ := updated.EdgeWeight(3, 4); w != 0.7 {
		t.Errorf("inserted edge = %v, want 0.7", w)
	}
	if updated.NumEdges() != 4 {
		t.Errorf("edges = %d, want 4", updated.NumEdges())
	}
	// original untouched
	if w, _ := g.EdgeWeight(0, 1); w != 0.5 {
		t.Errorf("original mutated: %v", w)
	}
}

func TestApplyNewNodes(t *testing.T) {
	g := baseGraph(t)
	updated, err := Apply(g, Batch{
		NewNodes: 2,
		Updates:  []EdgeUpdate{{From: 6, To: 0, Weight: 0.5}, {From: 7, To: 6, Weight: 0.5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if updated.NumNodes() != 8 {
		t.Fatalf("nodes = %d, want 8", updated.NumNodes())
	}
	if !updated.HasEdge(6, 0) || !updated.HasEdge(7, 6) {
		t.Error("new-node edges missing")
	}
}

func TestApplyErrors(t *testing.T) {
	g := baseGraph(t)
	if _, err := Apply(nil, Batch{}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := Apply(g, Batch{NewNodes: -1}); err == nil {
		t.Error("negative NewNodes accepted")
	}
	if _, err := Apply(g, Batch{Updates: []EdgeUpdate{{From: 99, To: 0, Weight: 0.5}}}); err == nil {
		t.Error("out-of-range update accepted")
	}
	if _, err := Apply(g, Batch{Updates: []EdgeUpdate{{From: 0, To: 2, Weight: 1.5}}}); err == nil {
		t.Error("invalid weight accepted")
	}
}

// Duplicate updates of the same edge within one batch resolve strictly
// last-write-wins in slice order — not by map iteration order, and a
// delete of an edge the graph never had is a silent no-op.
func TestApplySequentialLastWriteWins(t *testing.T) {
	cases := []struct {
		name    string
		updates []EdgeUpdate
		has     bool
		weight  float64
	}{
		{"upsert then delete", []EdgeUpdate{
			{From: 0, To: 1, Weight: 0.9},
			{From: 0, To: 1, Weight: 0},
		}, false, 0},
		{"delete then upsert", []EdgeUpdate{
			{From: 0, To: 1, Weight: 0},
			{From: 0, To: 1, Weight: 0.8},
		}, true, 0.8},
		{"double upsert keeps the second", []EdgeUpdate{
			{From: 0, To: 1, Weight: 0.2},
			{From: 0, To: 1, Weight: 0.7},
		}, true, 0.7},
		{"double upsert of a fresh edge keeps the second", []EdgeUpdate{
			{From: 3, To: 5, Weight: 0.2},
			{From: 3, To: 5, Weight: 0.6},
		}, true, 0.6},
		{"delete of a nonexistent edge is a no-op", []EdgeUpdate{
			{From: 3, To: 5, Weight: 0},
		}, false, 0},
		{"upsert, delete, upsert again", []EdgeUpdate{
			{From: 0, To: 1, Weight: 0.9},
			{From: 0, To: 1, Weight: 0},
			{From: 0, To: 1, Weight: 0.3},
		}, true, 0.3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := baseGraph(t)
			from, to := tc.updates[0].From, tc.updates[0].To
			updated, err := Apply(g, Batch{Updates: tc.updates})
			if err != nil {
				t.Fatal(err)
			}
			if updated.HasEdge(from, to) != tc.has {
				t.Fatalf("HasEdge(%d,%d) = %v, want %v", from, to, !tc.has, tc.has)
			}
			if tc.has {
				if w, _ := updated.EdgeWeight(from, to); w != tc.weight {
					t.Errorf("weight = %v, want %v", w, tc.weight)
				}
			}
			// Edge count follows from the final overlay state, never
			// from how many updates mentioned the edge.
			want := g.NumEdges()
			if tc.has && !g.HasEdge(from, to) {
				want++
			}
			if !tc.has && g.HasEdge(from, to) {
				want--
			}
			if updated.NumEdges() != want {
				t.Errorf("edges = %d, want %d", updated.NumEdges(), want)
			}
		})
	}
}

func phoneSpace(t testing.TB) *topics.Space {
	t.Helper()
	sb := topics.NewSpaceBuilder()
	a, _ := sb.AddTopic("x", "topic a") // nodes 0,1
	bid, _ := sb.AddTopic("x", "topic b")
	_ = sb.AddNode(a, 0)
	_ = sb.AddNode(a, 1)
	_ = sb.AddNode(bid, 4)
	return sb.Build()
}

func TestAffectedTopicsRadius(t *testing.T) {
	g := baseGraph(t)
	space := phoneSpace(t)
	batch := Batch{Updates: []EdgeUpdate{{From: 2, To: 3, Weight: 0.9}}}

	// radius 0: endpoints 2, 3 carry no topics.
	if got := AffectedTopics(g, g, space, batch, 0); len(got) != 0 {
		t.Errorf("radius 0 affected %v, want none", got)
	}
	// radius 1: node 1 (in-neighbor of 2) is a topic-a node.
	got := AffectedTopics(g, g, space, batch, 1)
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("radius 1 affected %v, want [0]", got)
	}
	// radius 3 still excludes the disconnected topic b.
	got = AffectedTopics(g, g, space, batch, 3)
	for _, id := range got {
		if id == 1 {
			t.Error("disconnected topic b marked affected")
		}
	}
	if AffectedTopics(g, nil, space, batch, 1) != nil {
		t.Error("nil updated graph should yield nil")
	}
	// nil old graph: expansion falls back to the updated graph only.
	if got := AffectedTopics(nil, g, space, batch, 1); len(got) != 1 || got[0] != 0 {
		t.Errorf("nil-old fallback affected %v, want [0]", got)
	}
}

// Regression for the deletion blast region: deleting a bridge edge must
// invalidate the topic on the far side of the bridge at radius ≥ 1. The
// far side is only adjacent to the deleted edge's endpoints, so a blast
// expansion that forgot deleted adjacency (or seeded only surviving
// edges' endpoints) would carry the far topic's stale summary over.
func TestAffectedTopicsDeletedBridge(t *testing.T) {
	// 0→1→2 ══bridge══ 3→4, topic "far" on node 4, topic "near" on 0.
	b := graph.NewBuilder(5)
	b.MustAddEdge(0, 1, 0.5)
	b.MustAddEdge(1, 2, 0.5)
	b.MustAddEdge(2, 3, 0.5) // the bridge
	b.MustAddEdge(3, 4, 0.5)
	old := b.Build()

	sb := topics.NewSpaceBuilder()
	near, _ := sb.AddTopic("x", "near")
	far, _ := sb.AddTopic("x", "far")
	_ = sb.AddNode(near, 0)
	_ = sb.AddNode(far, 4)
	space := sb.Build()

	batch := Batch{Updates: []EdgeUpdate{{From: 2, To: 3, Weight: 0}}}
	updated, err := Apply(old, batch)
	if err != nil {
		t.Fatal(err)
	}
	if updated.HasEdge(2, 3) {
		t.Fatal("bridge not deleted")
	}
	got := AffectedTopics(old, updated, space, batch, 1)
	if !slices.Contains(got, far) {
		t.Fatalf("far-side topic not invalidated by bridge deletion: affected %v", got)
	}
	if slices.Contains(got, near) {
		t.Errorf("near topic at distance 2 invalidated at radius 1: %v", got)
	}
	// At radius 2 both ends of the bridge's neighborhood are in.
	got = AffectedTopics(old, updated, space, batch, 2)
	if !slices.Contains(got, near) || !slices.Contains(got, far) {
		t.Errorf("radius 2 affected %v, want both topics", got)
	}
}

// The expansion must traverse PRE-update adjacency, not just the updated
// graph: when the old graph holds an edge the updated graph lacks and
// that edge's far endpoint is not itself a batch endpoint, only the
// union walk reaches it. The pre-fix single-graph signature could not
// even express this case.
func TestAffectedTopicsTraversesOldAdjacency(t *testing.T) {
	b := graph.NewBuilder(5)
	b.MustAddEdge(0, 1, 0.5)
	b.MustAddEdge(1, 2, 0.5)
	b.MustAddEdge(2, 3, 0.5)
	b.MustAddEdge(3, 4, 0.5)
	old := b.Build()

	// Updated graph: edges 2→3 AND 3→4 are gone.
	nb := graph.NewBuilder(5)
	nb.MustAddEdge(0, 1, 0.5)
	nb.MustAddEdge(1, 2, 0.5)
	updated := nb.Build()

	sb := topics.NewSpaceBuilder()
	far, _ := sb.AddTopic("x", "far")
	_ = sb.AddNode(far, 4)
	space := sb.Build()

	// The batch names only the 2→3 deletion, so the seeds are {2, 3}
	// and node 4 is reachable within one hop solely through the old
	// graph's 3→4 edge.
	batch := Batch{Updates: []EdgeUpdate{{From: 2, To: 3, Weight: 0}}}
	got := AffectedTopics(old, updated, space, batch, 1)
	if !slices.Contains(got, far) {
		t.Fatalf("old-only adjacency not traversed: affected %v, want [%d]", got, far)
	}
	// Updated-only expansion (nil old) cannot see it — this is exactly
	// the blind spot the union closes.
	if got := AffectedTopics(nil, updated, space, batch, 1); slices.Contains(got, far) {
		t.Fatalf("updated-only expansion unexpectedly reached node 4: %v", got)
	}
}

// Differential property: when `updated` really is Apply(old, batch),
// every changed edge contributes both endpoints as seeds, which makes
// the union expansion and an updated-graph-only expansion provably
// agree (any old path from a seed through deleted edges shortcuts, at
// its last deleted hop, to another seed with a shorter surviving
// suffix). This test pins that equivalence — if the seed set or the
// expansion ever narrows, the union walk becomes load-bearing and this
// documents the contract both must satisfy.
func TestAffectedTopicsUnionMatchesUpdatedOnlyOnRealBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 8 + rng.Intn(10)
		b := graph.NewBuilder(n)
		for u := 0; u < n; u++ {
			for d := 0; d < 1+rng.Intn(3); d++ {
				v := rng.Intn(n)
				if v != u {
					_ = b.AddEdge(graph.NodeID(u), graph.NodeID(v), 0.1+0.8*rng.Float64())
				}
			}
		}
		old := b.Build()

		var ups []EdgeUpdate
		for u := 0; u < n; u++ {
			nbrs, _ := old.OutNeighbors(graph.NodeID(u))
			for _, v := range nbrs {
				if rng.Intn(3) == 0 { // delete a third of the edges
					ups = append(ups, EdgeUpdate{From: graph.NodeID(u), To: v, Weight: 0})
				}
			}
		}
		for len(ups) < 2 { // plus an insert or two
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				ups = append(ups, EdgeUpdate{From: graph.NodeID(u), To: graph.NodeID(v), Weight: 0.5})
			}
		}
		batch := Batch{Updates: ups}
		updated, err := Apply(old, batch)
		if err != nil {
			t.Fatal(err)
		}

		sb := topics.NewSpaceBuilder()
		for ti := 0; ti < 4; ti++ {
			id, _ := sb.AddTopic("x", "t")
			seen := map[int]bool{}
			for j := 0; j < 1+rng.Intn(3); j++ {
				v := rng.Intn(n)
				if !seen[v] {
					seen[v] = true
					_ = sb.AddNode(id, graph.NodeID(v))
				}
			}
		}
		space := sb.Build()

		radius := rng.Intn(4)
		union := AffectedTopics(old, updated, space, batch, radius)
		updOnly := AffectedTopics(nil, updated, space, batch, radius)
		if !slices.Equal(union, updOnly) {
			t.Fatalf("trial %d radius %d: union %v != updated-only %v (batch %+v)",
				trial, radius, union, updOnly, batch)
		}
	}
}

func TestRefreshCarriesUnaffectedSummaries(t *testing.T) {
	g, err := dataset.GenerateGraph(dataset.GraphConfig{
		Nodes: 600, MinOutDegree: 2, MaxOutDegree: 6, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	space, err := dataset.GenerateTopics(g, dataset.TopicConfig{
		Tags: 3, TopicsPerTag: 4, MeanTopicNodes: 15, Locality: 0.9, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(g, space, core.Options{WalkL: 3, WalkR: 4, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.BuildIndexes(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := eng.MaterializeAll(context.Background(), core.MethodLRW); err != nil {
		t.Fatal(err)
	}

	// A single far-corner edge change should leave most topics intact.
	batch := Batch{Updates: []EdgeUpdate{{From: 599, To: 0, Weight: 0.3}}}
	fresh, st, err := Refresh(context.Background(), eng, nil, batch, 2)
	if err != nil {
		t.Fatal(err)
	}
	total := space.NumTopics()
	if st.Carried[core.MethodLRW] == 0 {
		t.Fatal("no summaries carried over")
	}
	// With the whole corpus materialized, carried + affected must
	// account for every topic exactly.
	if got := st.Carried[core.MethodLRW] + len(st.Affected); got != total {
		t.Errorf("carried %d + affected %d = %d, want %d", st.Carried[core.MethodLRW], len(st.Affected), got, total)
	}
	if got := fresh.CachedSummaries(core.MethodLRW); got != st.Carried[core.MethodLRW] {
		t.Errorf("cache holds %d, carried %d", got, st.Carried[core.MethodLRW])
	}
	// The refreshed engine must search fine.
	if _, err := fresh.Search(context.Background(), core.MethodLRW, "tag000", 5, 3); err != nil {
		t.Fatal(err)
	}
	// The stats' affected set matches a fresh expansion over both graphs.
	if got := AffectedTopics(eng.Graph(), fresh.Graph(), space, batch, 2); !slices.Equal(got, st.Affected) {
		t.Errorf("stats affected %v, recomputed %v", st.Affected, got)
	}
	// Affected topics recompute on demand.
	for _, tt := range st.Affected {
		if _, err := fresh.Summarize(context.Background(), core.MethodLRW, tt); err != nil {
			t.Fatalf("recompute of affected topic %d: %v", tt, err)
		}
	}
}

func TestRefreshNilEngine(t *testing.T) {
	if _, _, err := Refresh(context.Background(), nil, nil, Batch{}, 1); err == nil {
		t.Error("nil engine accepted")
	}
}

func TestRefreshInvalidatesChangedTopics(t *testing.T) {
	g, err := dataset.GenerateGraph(dataset.GraphConfig{
		Nodes: 300, MinOutDegree: 2, MaxOutDegree: 5, Seed: 29,
	})
	if err != nil {
		t.Fatal(err)
	}
	space, err := dataset.GenerateTopics(g, dataset.TopicConfig{
		Tags: 2, TopicsPerTag: 3, MeanTopicNodes: 10, Seed: 29,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(g, space, core.Options{WalkL: 3, WalkR: 4, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.BuildIndexes(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := eng.MaterializeAll(context.Background(), core.MethodLRW); err != nil {
		t.Fatal(err)
	}

	// Rebuild the space with topic 0 gaining an adopter.
	sb := topics.NewSpaceBuilder()
	for ti := 0; ti < space.NumTopics(); ti++ {
		old := space.Topic(topics.TopicID(ti))
		id, _ := sb.AddTopic(old.Tag, old.Label)
		for _, v := range space.Nodes(topics.TopicID(ti)) {
			_ = sb.AddNode(id, v)
		}
	}
	var extra graph.NodeID = 250
	for _, v := range space.Nodes(0) {
		if v == extra {
			extra = 251
		}
	}
	_ = sb.AddNode(0, extra)
	updated := sb.Build()

	fresh, st, err := Refresh(context.Background(), eng, updated, Batch{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := space.NumTopics() - 1 // all but the changed topic carried
	if st.Carried[core.MethodLRW] != want {
		t.Errorf("carried %d, want %d (changed topic invalidated)", st.Carried[core.MethodLRW], want)
	}
	if !slices.Equal(st.Affected, []topics.TopicID{0}) {
		t.Errorf("affected %v, want [0] (the topic that gained an adopter)", st.Affected)
	}
	// The changed topic recomputes against the NEW node set.
	s, err := fresh.Summarize(context.Background(), core.MethodLRW, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Property: Apply leaves every untouched edge byte-identical and never
// changes the node count beyond NewNodes.
func TestApplyPreservesUntouchedEdges(t *testing.T) {
	g, err := dataset.GenerateGraph(dataset.GraphConfig{Nodes: 150, MinOutDegree: 2, MaxOutDegree: 5, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	batch := Batch{Updates: []EdgeUpdate{
		{From: 3, To: 7, Weight: 0.42},
		{From: 10, To: 11, Weight: 0},
	}, NewNodes: 1}
	updated, err := Apply(g, batch)
	if err != nil {
		t.Fatal(err)
	}
	if updated.NumNodes() != g.NumNodes()+1 {
		t.Fatalf("nodes = %d", updated.NumNodes())
	}
	touched := map[[2]graph.NodeID]bool{{3, 7}: true, {10, 11}: true}
	for u := 0; u < g.NumNodes(); u++ {
		nbrs, ws := g.OutNeighbors(graph.NodeID(u))
		for i, v := range nbrs {
			if touched[[2]graph.NodeID{graph.NodeID(u), v}] {
				continue
			}
			w, ok := updated.EdgeWeight(graph.NodeID(u), v)
			if !ok || w != ws[i] {
				t.Fatalf("untouched edge %d→%d changed: %v,%v", u, v, w, ok)
			}
		}
	}
}

func TestAffectedTopicsEmptyBatch(t *testing.T) {
	g := baseGraph(t)
	space := phoneSpace(t)
	if got := AffectedTopics(g, g, space, Batch{}, 3); len(got) != 0 {
		t.Errorf("empty batch affected %v", got)
	}
}

// builderApply is the Apply the splice replaced, kept as the oracle: replay
// the batch into an overlay (last write wins), then feed a graph.Builder
// every surviving edge — untouched ones, re-weighted ones, and inserts —
// in (From, To) order, so the first invalid upsert in that order is the
// error.
func builderApply(g *graph.Graph, batch Batch) (*graph.Graph, error) {
	n := g.NumNodes() + batch.NewNodes
	overlay := map[[2]graph.NodeID]float64{}
	for _, u := range batch.Updates {
		overlay[[2]graph.NodeID{u.From, u.To}] = u.Weight
	}
	for _, e := range g.Edges() {
		if _, ok := overlay[[2]graph.NodeID{e.From, e.To}]; !ok {
			overlay[[2]graph.NodeID{e.From, e.To}] = e.Weight
		}
	}
	keys := make([][2]graph.NodeID, 0, len(overlay))
	for k := range overlay {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b [2]graph.NodeID) int {
		if a[0] != b[0] {
			return int(a[0] - b[0])
		}
		return int(a[1] - b[1])
	})
	b := graph.NewBuilder(n)
	for _, k := range keys {
		if w := overlay[k]; w != 0 {
			if err := b.AddEdge(k[0], k[1], w); err != nil {
				return nil, err
			}
		}
	}
	return b.Build(), nil
}

// TestApplySpliceEqualsBuilder holds Apply's splice to a full Builder
// rebuild — both CSRs, field for field — over seeded random graphs and
// batches mixing inserts, deletes of present and absent edges, weight-only
// changes, in-batch duplicates and node growth; and holds a batch with
// several invalid upserts to one error, the first in (From, To) order,
// however often it is applied.
func TestApplySpliceEqualsBuilder(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		b := graph.NewBuilder(n)
		for i := rng.Intn(4 * n); i > 0; i-- {
			if u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)); u != v {
				b.MustAddEdge(u, v, 0.05+0.9*rng.Float64())
			}
		}
		g := b.Build()
		edges := g.Edges()
		batch := Batch{NewNodes: rng.Intn(3)}
		grown := n + batch.NewNodes
		for i := rng.Intn(40); i > 0; i-- {
			var u EdgeUpdate
			switch kind := rng.Intn(5); {
			case kind == 0 && len(edges) > 0: // delete a present edge
				e := edges[rng.Intn(len(edges))]
				u = EdgeUpdate{From: e.From, To: e.To}
			case kind == 1 && len(edges) > 0: // re-weight a present edge
				e := edges[rng.Intn(len(edges))]
				u = EdgeUpdate{From: e.From, To: e.To, Weight: 0.05 + 0.9*rng.Float64()}
			case kind == 2: // delete an edge that may be absent
				u = EdgeUpdate{From: graph.NodeID(rng.Intn(grown)), To: graph.NodeID(rng.Intn(grown))}
			default: // insert, possibly touching a new node
				u = EdgeUpdate{From: graph.NodeID(rng.Intn(grown)), To: graph.NodeID(rng.Intn(grown)), Weight: 0.05 + 0.9*rng.Float64()}
				if u.From == u.To {
					u.Weight = 0
				}
			}
			batch.Updates = append(batch.Updates, u)
			if rng.Intn(4) == 0 { // an in-batch duplicate, either kind
				d := u
				if d.Weight = 0; d.From != d.To && rng.Intn(2) == 0 {
					d.Weight = 0.3
				}
				batch.Updates = append(batch.Updates, d)
			}
		}
		want, err := builderApply(g, batch)
		if err != nil {
			t.Fatalf("seed %d: oracle: %v", seed, err)
		}
		before := rebuilt(g)
		got, err := Apply(g, batch)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: spliced graph differs from a Builder rebuild (%v against %v)", seed, got, want)
		}
		if !reflect.DeepEqual(g, before) {
			t.Fatalf("seed %d: Apply modified its input graph", seed)
		}
	}

	t.Run("invalid updates", func(t *testing.T) {
		g := baseGraph(t)
		batch := Batch{Updates: []EdgeUpdate{
			{From: 5, To: 0, Weight: 2},    // weight > 1
			{From: 3, To: 3, Weight: 0.5},  // self loop
			{From: 4, To: 1, Weight: -0.1}, // negative weight
			{From: 2, To: 2, Weight: 0},    // a self-loop delete is a no-op
			{From: 1, To: 0, Weight: 1.5},  // overwritten below
			{From: 1, To: 0, Weight: 0.5},
			{From: 0, To: 1, Weight: 0.9},
		}}
		_, want := builderApply(g, batch)
		if want == nil || want.Error() != "graph: self loop on node 3" {
			t.Fatalf("oracle error %v, want the self loop at (3, 3)", want)
		}
		for i := 0; i < 100; i++ {
			if _, err := Apply(g, batch); err == nil || err.Error() != want.Error() {
				t.Fatalf("apply %d: error %v, want %v", i, err, want)
			}
		}
	})
}

// rebuilt is g put through a Builder: the same graph, newly allocated.
func rebuilt(g *graph.Graph) *graph.Graph {
	b := graph.NewBuilder(g.NumNodes())
	for _, e := range g.Edges() {
		b.MustAddEdge(e.From, e.To, e.Weight)
	}
	return b.Build()
}

// BenchmarkApply times the benchmark harness's batch shape through Apply:
// 16 edges the graph does not have, then their deletes, on each preset's
// graph.
func BenchmarkApply(b *testing.B) {
	for _, preset := range []string{"data_2k", "data_350k"} {
		b.Run(preset, func(b *testing.B) {
			p, err := dataset.PresetByName(preset)
			if err != nil {
				b.Fatal(err)
			}
			g, err := dataset.GenerateGraph(p.Graph)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			var upserts, deletes Batch
			for len(upserts.Updates) < 16 {
				u, v := graph.NodeID(rng.Intn(g.NumNodes())), graph.NodeID(rng.Intn(g.NumNodes()))
				if u != v && !g.HasEdge(u, v) && !slices.ContainsFunc(upserts.Updates, func(e EdgeUpdate) bool { return e.From == u && e.To == v }) {
					upserts.Updates = append(upserts.Updates, EdgeUpdate{From: u, To: v, Weight: 0.1 + 0.8*rng.Float64()})
					deletes.Updates = append(deletes.Updates, EdgeUpdate{From: u, To: v})
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				next, err := Apply(g, upserts)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := Apply(next, deletes); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestAffectedTopicsEarlyExitIsExact holds AffectedTopics, which stops
// expanding once every topic is marked, to the full radius-hop expansion
// over both graphs, on random graphs and spaces of one topic to many.
func TestAffectedTopicsEarlyExitIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 10 + rng.Intn(40)
		b := graph.NewBuilder(n)
		for i := rng.Intn(3 * n); i > 0; i-- {
			if u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)); u != v {
				b.MustAddEdge(u, v, 0.5)
			}
		}
		old := b.Build()
		var batch Batch
		for i := 1 + rng.Intn(3); i > 0; i-- {
			if u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)); u != v {
				batch.Updates = append(batch.Updates, EdgeUpdate{From: u, To: v, Weight: float64(rng.Intn(2)) * 0.5})
			}
		}
		updated, err := Apply(old, batch)
		if err != nil {
			t.Fatal(err)
		}
		sb := topics.NewSpaceBuilder()
		for ti := 1 + rng.Intn(8); ti > 0; ti-- {
			id, _ := sb.AddTopic("x", "t")
			for j := 1 + rng.Intn(4); j > 0; j-- {
				_ = sb.AddNode(id, graph.NodeID(rng.Intn(n)))
			}
		}
		space := sb.Build()
		radius := rng.Intn(6)

		// The reference: mark the whole radius-hop region, then its topics.
		region := make([]bool, n)
		var frontier []graph.NodeID
		for _, u := range batch.Updates {
			for _, v := range []graph.NodeID{u.From, u.To} {
				if !region[v] {
					region[v] = true
					frontier = append(frontier, v)
				}
			}
		}
		for hop := 0; hop < radius; hop++ {
			var next []graph.NodeID
			for _, v := range frontier {
				for _, g := range []*graph.Graph{old, updated} {
					out, _ := g.OutNeighbors(v)
					in, _ := g.InNeighbors(v)
					for _, w := range append(slices.Clone(out), in...) {
						if !region[w] {
							region[w] = true
							next = append(next, w)
						}
					}
				}
			}
			frontier = next
		}
		var want []topics.TopicID
		for ti := 0; ti < space.NumTopics(); ti++ {
			if slices.ContainsFunc(space.Nodes(topics.TopicID(ti)), func(v graph.NodeID) bool { return region[v] }) {
				want = append(want, topics.TopicID(ti))
			}
		}
		if got := AffectedTopics(old, updated, space, batch, radius); !slices.Equal(got, want) {
			t.Fatalf("trial %d radius %d: affected %v, want %v", trial, radius, got, want)
		}
	}
}
