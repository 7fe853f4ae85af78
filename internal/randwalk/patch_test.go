package randwalk

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sync"
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
			set = append(set, graph.Edge{From: old.From, To: old.To, Weight: 0.05 + 0.9*rng.Float64()})
		default:
			u, v := graph.NodeID(rng.Intn(g.NumNodes())), graph.NodeID(rng.Intn(g.NumNodes()))
			if u != v {
				set = append(set, graph.Edge{From: u, To: v, Weight: 0.05 + 0.9*rng.Float64()})
			}
		}
	}
	return set
}

// mustPatch patches old and fails the test unless the result is, field
// for field and support count for support count, what Build returns, with
// its reach lists where they belong: merged from old's when old had
// derived its own (and the patch did not fall back to a build), left to
// their first read otherwise. The reach lists are compared on their own
// before the indexes as wholes, each side's derived by now.
func mustPatch(t *testing.T, old *Index, oldG, newG *graph.Graph, opt Options) (*Index, PatchStats) {
	t.Helper()
	ctx := context.Background()
	before := snapshot(old)
	got, stats, err := Patch(ctx, old, oldG, newG, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, old) {
		t.Fatal("Patch modified the old index, which may still be serving reads")
	}
	want, err := Build(ctx, newG, opt)
	if err != nil {
		t.Fatal(err)
	}
	if want.reachDone.Load() {
		t.Fatal("Build derived the reach lists; they wait for their first read")
	}
	if merged := old.reachDone.Load() && !stats.Rebuilt; got.reachDone.Load() != merged {
		t.Fatalf("old index read: %v, rebuilt: %v, but the patched index has its reach lists in place: %v",
			old.reachDone.Load(), stats.Rebuilt, got.reachDone.Load())
	}
	gotOff, gotStarts := got.reach()
	wantOff, wantStarts := want.reach()
	if !slices.Equal(gotOff, wantOff) || !slices.Equal(gotStarts, wantStarts) {
		t.Fatalf("patched reach lists differ from a build's (%d entries against %d)", len(gotStarts), len(wantStarts))
	}
	if !reflect.DeepEqual(got, want) {
		for j := 1; j <= opt.L; j++ {
			if !reflect.DeepEqual(got.VisitFreqRow(j), want.VisitFreqRow(j)) {
				t.Errorf("H[%d] differs", j)
			}
		}
		t.Fatalf("patched index differs from a build (walks equal: %v, support equal: %v)",
			reflect.DeepEqual(got.walks, want.walks), reflect.DeepEqual(got.sup, want.sup))
	}
	return got, stats
}

// snapshot deep-copies an index, its reach lists only if it has them.
func snapshot(ix *Index) *Index {
	c := &Index{L: ix.L, R: ix.R, n: ix.n, walks: slices.Clone(ix.walks), h: make([][]float64, len(ix.h))}
	for j := range ix.h {
		c.h[j] = slices.Clone(ix.h[j])
	}
	if ix.reachDone.Load() {
		c.setReach(slices.Clone(ix.reachOff), slices.Clone(ix.reachStarts))
	}
	if ix.sup != nil {
		c.sup = &support{seed: ix.sup.seed, one: slices.Clone(ix.sup.one), more: maps.Clone(ix.sup.more)}
	}
	return c
}

func TestPatchEqualsBuild(t *testing.T) {
	opt := Options{L: 5, R: 6, Seed: 9}
	// Each chain patches its own last patch; the read chain reads I_L
	// before every patch, so every patch merges, the unread one never
	// derives it.
	t.Run("random batches, each patching the last patch", func(t *testing.T) {
		for _, read := range []bool{false, true} {
			t.Run(fmt.Sprintf("I_L read %v", read), func(t *testing.T) {
				rng := rand.New(rand.NewSource(3))
				g := randomGraph(3, 400, 1600)
				ix, err := Build(context.Background(), g, opt)
				if err != nil {
					t.Fatal(err)
				}
				for round := 0; round < 12; round++ {
					if read {
						ix.ReachL(0)
					}
					next := edited(g, 0, randomEdits(rng, g, 1+rng.Intn(5))...)
					var stats PatchStats
					ix, stats = mustPatch(t, ix, g, next, opt)
					if stats.Rebuilt || stats.Resampled >= g.NumNodes() {
						t.Fatalf("round %d: %+v; a small batch must not resample every start", round, stats)
					}
					g = next
				}
			})
		}
	})

	t.Run("reciprocal edges", func(t *testing.T) {
		// Every edge has its reverse, so walks bounce back and H is held
		// up by level ≥ 2 contributions that a patch must retire exactly.
		b := graph.NewBuilder(40)
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 70; i++ {
			u, v := graph.NodeID(rng.Intn(40)), graph.NodeID(rng.Intn(40))
			if u != v {
				b.MustAddEdge(u, v, 0.5)
				b.MustAddEdge(v, u, 0.5)
			}
		}
		g := b.Build()
		ix, err := Build(context.Background(), g, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(ix.sup.more) == 0 {
			t.Fatal("no level ≥ 2 support on a reciprocal graph; the case tests nothing")
		}
		for round := 0; round < 8; round++ {
			next := edited(g, 0, randomEdits(rng, g, 2)...)
			ix, _ = mustPatch(t, ix, g, next, opt)
			g = next
		}
	})

	t.Run("dead ends", func(t *testing.T) {
		// 0→1→2, 3→1: node 2 is a dead end. It gains an out-edge (walks
		// that stopped there now continue), then 1 loses its only one.
		b := graph.NewBuilder(5)
		b.MustAddEdge(0, 1, 0.5)
		b.MustAddEdge(1, 2, 0.5)
		b.MustAddEdge(3, 1, 0.5)
		g := b.Build()
		ix, err := Build(context.Background(), g, opt)
		if err != nil {
			t.Fatal(err)
		}
		next := edited(g, 0, graph.Edge{From: 2, To: 4, Weight: 0.5}, graph.Edge{From: 2, To: 0, Weight: 0.5})
		ix, stats := mustPatch(t, ix, g, next, opt)
		if stats.Resampled != 4 { // 0, 1, 3 reach 2; 4 does not
			t.Errorf("resampled %d starts, want 4", stats.Resampled)
		}
		g, next = next, edited(next, 0, graph.Edge{From: 1, To: 2})
		mustPatch(t, ix, g, next, opt)
	})

	t.Run("weights alone resample nothing", func(t *testing.T) {
		g := randomGraph(7, 100, 400)
		ix, err := Build(context.Background(), g, opt)
		if err != nil {
			t.Fatal(err)
		}
		e := g.Edges()[0]
		_, stats := mustPatch(t, ix, g, edited(g, 0, graph.Edge{From: e.From, To: e.To, Weight: e.Weight / 2}), opt)
		if stats.Resampled != 0 || stats.Rebuilt {
			t.Errorf("a weight-only change gave %+v; walks are unweighted", stats)
		}
	})

	t.Run("falls back to a build", func(t *testing.T) {
		g := randomGraph(11, 100, 400)
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
			"other L":       {ix, g, Options{L: opt.L + 1, R: opt.R, Seed: opt.Seed}},
			"other R":       {ix, g, Options{L: opt.L, R: opt.R + 1, Seed: opt.Seed}},
			"other seed":    {ix, g, Options{L: opt.L, R: opt.R, Seed: opt.Seed + 1}},
			"adopted index": {adopted, g, opt},
		} {
			_, stats := mustPatch(t, c.old, g, c.newG, c.opt)
			if !stats.Rebuilt || stats.Resampled != c.newG.NumNodes() {
				t.Errorf("%s: %+v, want a rebuild of all %d starts", name, stats, c.newG.NumNodes())
			}
		}
	})
}

func TestPatchCanceledContext(t *testing.T) {
	g := randomGraph(13, 300, 1200)
	opt := Options{L: 4, R: 4, Seed: 1}
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

// TestReachDerivedOnFirstRead: Build leaves I_L to its first read, the
// read derives the build's lists, a patch of an index nobody read stays
// unread, and a patch of a read index arrives with its lists merged.
func TestReachDerivedOnFirstRead(t *testing.T) {
	g := randomGraph(17, 300, 1200)
	opt := Options{L: 4, R: 4, Seed: 17}
	ix, err := Build(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if ix.reachDone.Load() || ix.reachStarts != nil {
		t.Fatal("Build derived I_L")
	}
	// Saving or sizing an index is no RCL-A read: Raw hands out the
	// inversion without keeping it, MemoryBytes counts what is there.
	wantOff, wantStarts := referenceReach(ix)
	_, _, _, _, _, rawOff, rawStarts := ix.Raw()
	if !slices.Equal(rawOff, wantOff) || !slices.Equal(rawStarts, wantStarts) {
		t.Fatal("Raw's reach lists differ from the inversion of the walks")
	}
	unread := ix.MemoryBytes()
	if ix.reachDone.Load() || ix.reachStarts != nil {
		t.Fatal("Raw or MemoryBytes kept I_L on the index")
	}
	next := edited(g, 0, graph.Edge{From: 1, To: 2, Weight: 0.5}, graph.Edge{From: 7, To: 3, Weight: 0.5})
	lazy, _, err := Patch(context.Background(), ix, g, next, opt)
	if err != nil {
		t.Fatal(err)
	}
	if ix.reachDone.Load() || lazy.reachDone.Load() {
		t.Fatalf("a patch of an unread index derived I_L (old: %v, new: %v)", ix.reachDone.Load(), lazy.reachDone.Load())
	}
	if !slices.Equal(ix.ReachL(5), wantStarts[wantOff[5]:wantOff[6]]) || !ix.reachDone.Load() {
		t.Fatal("the first ReachL did not derive the build's lists")
	}
	if read := ix.MemoryBytes(); read != unread+int64(len(wantOff)+len(wantStarts))*4 {
		t.Fatalf("MemoryBytes %d once I_L is read, %d before: the %d reach entries are not counted", read, unread, len(wantStarts))
	}
	merged, _, err := Patch(context.Background(), ix, g, next, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !merged.reachDone.Load() {
		t.Fatal("a patch of a read index left I_L to a full inversion")
	}
	wantOff, wantStarts = referenceReach(merged)
	if !slices.Equal(merged.reachOff, wantOff) || !slices.Equal(merged.reachStarts, wantStarts) {
		t.Fatal("merged reach lists differ from the inversion of the patched walks")
	}
}

// TestReachConcurrentFirstRead: sixteen goroutines make the first reads
// of one fresh index at once; every one sees the lists a lone reader does.
func TestReachConcurrentFirstRead(t *testing.T) {
	g := randomGraph(19, 400, 1600)
	opt := Options{L: 5, R: 6, Seed: 19}
	ref, err := Build(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	wantOff, wantStarts := ref.reach()
	for round := 0; round < 5; round++ {
		ix, err := Build(context.Background(), g, opt)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make([]error, 16)
		for r := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < ix.NumNodes(); i++ {
					v := graph.NodeID((i + r*37) % ix.NumNodes())
					want := wantStarts[wantOff[v]:wantOff[v+1]]
					if r%2 == 0 && !slices.Equal(ix.ReachL(v), want) {
						errs[r] = fmt.Errorf("reader %d: ReachL(%d) = %v, want %v", r, v, ix.ReachL(v), want)
						return
					}
					if r%2 == 1 && len(want) > 0 && !ix.CanReach(want[len(want)-1], v) {
						errs[r] = fmt.Errorf("reader %d: CanReach(%d, %d) = false", r, want[len(want)-1], v)
						return
					}
				}
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkPatch times one refresh-sized patch: the benchmark harness's
// batch shape (16 edges the graph does not have) on its dataset at the
// server's L and R, beside BenchmarkBuild's figure for the same graph.
func BenchmarkPatch(b *testing.B) {
	b.Run("random2k", func(b *testing.B) {
		benchPatch(b, randomGraph(1, 2000, 20_000), Options{L: 6, R: 8, Seed: 1})
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
		benchPatch(b, g, Options{L: 6, R: 16, Seed: 1})
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
	b.ReportMetric(float64(stats.Resampled), "resampled")
}
