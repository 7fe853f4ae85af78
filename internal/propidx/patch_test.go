package propidx

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
)

// edited returns g with the edges of set upserted (weight > 0) or deleted
// (weight 0), over at least n nodes.
func edited(g *graph.Graph, n int, set ...graph.Edge) *graph.Graph {
	over := map[[2]graph.NodeID]float64{}
	for _, e := range set {
		over[[2]graph.NodeID{e.From, e.To}] = e.Weight
	}
	b := graph.NewBuilder(max(n, g.NumNodes()))
	for _, e := range g.Edges() {
		if _, ok := over[[2]graph.NodeID{e.From, e.To}]; !ok {
			b.MustAddEdge(e.From, e.To, e.Weight)
		}
	}
	for k, w := range over {
		if w > 0 {
			b.MustAddEdge(k[0], k[1], w)
		}
	}
	return b.Build()
}

// randomEdits draws a batch of new edges, deletes and weight-only upserts.
func randomEdits(rng *rand.Rand, g *graph.Graph, count int) []graph.Edge {
	edges := g.Edges()
	var set []graph.Edge
	for i := 0; i < count; i++ {
		switch old := edges[rng.Intn(len(edges))]; rng.Intn(3) {
		case 0:
			set = append(set, graph.Edge{From: old.From, To: old.To}) // delete
		case 1:
			set = append(set, graph.Edge{From: old.From, To: old.To, Weight: 0.05 + 0.5*rng.Float64()})
		default:
			u, v := graph.NodeID(rng.Intn(g.NumNodes())), graph.NodeID(rng.Intn(g.NumNodes()))
			if u != v {
				set = append(set, graph.Edge{From: u, To: v, Weight: 0.05 + 0.5*rng.Float64()})
			}
		}
	}
	return set
}

// mustPatch patches old and fails the test unless the result is, array
// for array, what Build returns.
func mustPatch(t *testing.T, old *Index, oldG, newG *graph.Graph, opt Options) (*Index, PatchStats) {
	t.Helper()
	ctx := context.Background()
	got, stats, err := Patch(ctx, old, oldG, newG, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Build(ctx, newG, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		for v := 0; v < want.NumNodes(); v++ {
			gs, gp, gm := got.Gamma(graph.NodeID(v))
			ws, wp, wm := want.Gamma(graph.NodeID(v))
			if !sameRow(row{gs, gp, gm}, row{ws, wp, wm}) {
				t.Fatalf("patched Γ(%d) has sources %v, a build gives %v (or their values or marks differ)", v, gs, ws)
			}
		}
		t.Fatal("patched index differs from a build outside its rows")
	}
	return got, stats
}

func TestPatchEqualsBuild(t *testing.T) {
	t.Run("random batches, each patching the last patch", func(t *testing.T) {
		for name, opt := range map[string]Options{
			"theta cut":  {Theta: 0.05},
			"budget cut": {Theta: 0.01, MaxPathsPerNode: 12}, // runs out mid-tree on most rows
		} {
			rng := rand.New(rand.NewSource(4))
			g := randomWeighted(rng, 400, 2000, 0.05, 0.5)
			ix, err := Build(context.Background(), g, opt)
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 12; round++ {
				next := edited(g, 0, randomEdits(rng, g, 1+rng.Intn(5))...)
				before, err := Build(context.Background(), g, opt)
				if err != nil {
					t.Fatal(err)
				}
				var stats PatchStats
				old := ix
				ix, stats = mustPatch(t, ix, g, next, opt)
				if stats.Rebuilt || stats.PatchedRows == 0 || stats.PatchedRows >= g.NumNodes() {
					t.Fatalf("%s round %d: %+v; a small batch must redo some rows and not all", name, round, stats)
				}
				if !reflect.DeepEqual(old, before) {
					t.Fatalf("%s round %d: Patch modified the old index, which may still be serving reads", name, round)
				}
				g = next
			}
		}
	})

	t.Run("a weight alone moves rows", func(t *testing.T) {
		opt := Options{Theta: 0.05}
		g := randomWeighted(rand.New(rand.NewSource(6)), 200, 1000, 0.05, 0.5)
		ix, err := Build(context.Background(), g, opt)
		if err != nil {
			t.Fatal(err)
		}
		e := g.Edges()[0]
		_, stats := mustPatch(t, ix, g, edited(g, 0, graph.Edge{From: e.From, To: e.To, Weight: e.Weight / 2}), opt)
		if stats.PatchedRows == 0 {
			t.Error("a changed weight patched no row; Γ aggregates weights")
		}
		same, stats := mustPatch(t, ix, g, edited(g, 0), opt)
		if same != ix || stats.PatchedRows != 0 {
			t.Errorf("an unchanged graph gave a new index (%+v)", stats)
		}
	})

	t.Run("falls back to a build", func(t *testing.T) {
		opt := Options{Theta: 0.05}
		g := randomWeighted(rand.New(rand.NewSource(8)), 100, 500, 0.05, 0.5)
		ix, err := Build(context.Background(), g, opt)
		if err != nil {
			t.Fatal(err)
		}
		adopted, err := Adopt(ix.Raw())
		if err != nil {
			t.Fatal(err)
		}
		grown := edited(g, 101, graph.Edge{From: 100, To: 1, Weight: 0.5})
		for name, c := range map[string]struct {
			old  *Index
			newG *graph.Graph
			opt  Options
		}{
			"grown graph":   {ix, grown, opt},
			"other theta":   {ix, g, Options{Theta: 0.1}},
			"other cap":     {ix, g, Options{Theta: opt.Theta, MaxPathsPerNode: 7}},
			"adopted index": {adopted, g, opt},
		} {
			_, stats := mustPatch(t, c.old, g, c.newG, c.opt)
			if !stats.Rebuilt || stats.PatchedRows != c.newG.NumNodes() {
				t.Errorf("%s: %+v, want a rebuild of all %d rows", name, stats, c.newG.NumNodes())
			}
		}
	})
}

func TestPatchCanceledContext(t *testing.T) {
	opt := Options{Theta: 0.05}
	g := randomWeighted(rand.New(rand.NewSource(10)), 300, 1500, 0.05, 0.5)
	ix, err := Build(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := Patch(ctx, ix, g, edited(g, 0, graph.Edge{From: 1, To: 2, Weight: 0.5}), opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("Patch under a canceled context returned %v", err)
	}
}

// BenchmarkPatch times one refresh-sized patch: the benchmark harness's
// batch shape (16 edges the graph does not have) on its dataset at the
// server's θ, beside BenchmarkBuild's figure for the same graph.
func BenchmarkPatch(b *testing.B) {
	b.Run("random3k", func(b *testing.B) {
		g := randomWeighted(rand.New(rand.NewSource(9)), 3000, 18_000, 0.05, 0.5)
		benchPatch(b, g, Options{Theta: 0.05})
	})
	b.Run("data_350k", func(b *testing.B) {
		if testing.Short() {
			b.Skip("data_350k build skipped under -short")
		}
		p, err := dataset.PresetByName("data_350k")
		if err != nil {
			b.Fatal(err)
		}
		g, err := dataset.GenerateGraph(p.Graph)
		if err != nil {
			b.Fatal(err)
		}
		benchPatch(b, g, Options{Theta: 0.01})
	})
}

func benchPatch(b *testing.B, g *graph.Graph, opt Options) {
	rng := rand.New(rand.NewSource(1))
	var batch []graph.Edge
	for len(batch) < 16 {
		u, v := graph.NodeID(rng.Intn(g.NumNodes())), graph.NodeID(rng.Intn(g.NumNodes()))
		if u != v && !g.HasEdge(u, v) {
			batch = append(batch, graph.Edge{From: u, To: v, Weight: 0.1 + 0.8*rng.Float64()})
		}
	}
	next := edited(g, 0, batch...)
	old, err := Build(context.Background(), g, opt)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var stats PatchStats
	for i := 0; i < b.N; i++ {
		if _, stats, err = Patch(context.Background(), old, g, next, opt); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(stats.PatchedRows), "rows")
}
