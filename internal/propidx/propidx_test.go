package propidx

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/graph"
)

// triangle builds 1→2 (0.5), 2→3 (0.4), 1→3 (0.3) over nodes 0..3
// (node 0 is isolated so IDs match the prose below).
func triangle(t testing.TB) *graph.Graph {
	b := graph.NewBuilder(4)
	b.MustAddEdge(1, 2, 0.5)
	b.MustAddEdge(2, 3, 0.4)
	b.MustAddEdge(1, 3, 0.3)
	return b.Build()
}

func TestBuildValidatesTheta(t *testing.T) {
	g := triangle(t)
	for _, theta := range []float64{0, -0.1, 1, 1.5} {
		if _, err := Build(context.Background(), g, Options{Theta: theta}); err == nil {
			t.Errorf("theta %v accepted", theta)
		}
	}
	// NaN fails every comparison, so a range check written as two
	// rejections lets it through and the θ-bounded enumeration never cuts
	// a path. On a canceled context an accepted NaN fails fast with
	// context.Canceled instead of the θ error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Build(ctx, g, Options{Theta: math.NaN()}); err == nil || errors.Is(err, context.Canceled) {
		t.Errorf("theta NaN: got %v, want the θ range error", err)
	}
}

func TestGammaAggregatesPathProducts(t *testing.T) {
	// θ=0.05 admits every path: Γ(3) = {1: 0.3 + 0.5·0.4, 2: 0.4}.
	g := triangle(t)
	ix, err := Build(context.Background(), g, Options{Theta: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := ix.Prop(3, 1); !ok || math.Abs(p-0.5) > 1e-12 {
		t.Errorf("Prop(3,1) = %v,%v, want 0.5,true", p, ok)
	}
	if p, ok := ix.Prop(3, 2); !ok || math.Abs(p-0.4) > 1e-12 {
		t.Errorf("Prop(3,2) = %v,%v, want 0.4,true", p, ok)
	}
	if _, ok := ix.Prop(3, 0); ok {
		t.Error("isolated node 0 indexed")
	}
	if ix.MaxPotential(3) != 0 {
		t.Errorf("no potential nodes expected, maxEP = %v", ix.MaxPotential(3))
	}
}

func TestThetaCutsLongPath(t *testing.T) {
	// θ=0.25 cuts 1→2→3 (0.2) but keeps 1→3 (0.3) and 2→3 (0.4).
	g := triangle(t)
	ix, err := Build(context.Background(), g, Options{Theta: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := ix.Prop(3, 1); math.Abs(p-0.3) > 1e-12 {
		t.Errorf("Prop(3,1) = %v, want 0.3 (long path cut)", p)
	}
	// Node 2's pruned in-neighbor 1 is itself in Γ(3), so 2 is NOT
	// marked potential (Figure 3's "already included in the index" rule).
	if ix.MaxPotential(3) != 0 {
		t.Errorf("maxEP = %v, want 0 (cut neighbor already indexed)", ix.MaxPotential(3))
	}
}

func TestPotentialMarking(t *testing.T) {
	// θ=0.35 drops node 1 entirely: 1→3 (0.3) and 1→2→3 (0.2) are both
	// below threshold. Node 2 keeps an unindexed pruned in-neighbor and
	// must be marked potential; maxEP = Prop(3,2) = 0.4.
	g := triangle(t)
	ix, err := Build(context.Background(), g, Options{Theta: 0.35})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ix.Prop(3, 1); ok {
		t.Error("node 1 indexed despite sub-threshold paths")
	}
	srcs, _, pot := ix.Gamma(3)
	if len(srcs) != 1 || srcs[0] != 2 || !pot[0] {
		t.Fatalf("Gamma(3) = %v potential=%v, want [2] [true]", srcs, pot)
	}
	if got := ix.MaxPotential(3); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("MaxPotential(3) = %v, want 0.4", got)
	}
}

func TestCyclesDoNotLoopForever(t *testing.T) {
	// 0⇄1 cycle with strong weights; simple-path restriction must
	// terminate and index each node once per target.
	b := graph.NewBuilder(2)
	b.MustAddEdge(0, 1, 0.9)
	b.MustAddEdge(1, 0, 0.9)
	g := b.Build()
	ix, err := Build(context.Background(), g, Options{Theta: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := ix.Prop(1, 0); !ok || math.Abs(p-0.9) > 1e-12 {
		t.Errorf("Prop(1,0) = %v,%v, want 0.9", p, ok)
	}
	if p, ok := ix.Prop(0, 1); !ok || math.Abs(p-0.9) > 1e-12 {
		t.Errorf("Prop(0,1) = %v,%v, want 0.9", p, ok)
	}
}

func TestDiamondAggregation(t *testing.T) {
	// Two disjoint paths 0→1→3 and 0→2→3 both above θ must sum.
	b := graph.NewBuilder(4)
	b.MustAddEdge(0, 1, 0.5)
	b.MustAddEdge(1, 3, 0.6)
	b.MustAddEdge(0, 2, 0.4)
	b.MustAddEdge(2, 3, 0.5)
	g := b.Build()
	ix, err := Build(context.Background(), g, Options{Theta: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	want := 0.5*0.6 + 0.4*0.5
	if p, _ := ix.Prop(3, 0); math.Abs(p-want) > 1e-12 {
		t.Errorf("Prop(3,0) = %v, want %v", p, want)
	}
}

func TestEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0).Build()
	ix, err := Build(context.Background(), g, Options{Theta: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumNodes() != 0 || ix.Size() != 0 {
		t.Errorf("empty graph produced entries: %d nodes %d entries", ix.NumNodes(), ix.Size())
	}
}

func TestBudgetCapMarksPotential(t *testing.T) {
	// A complete-ish graph with a tiny path budget: entries must still be
	// produced and the frontier marked potential rather than lost.
	rng := rand.New(rand.NewSource(3))
	n := 12
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Float64() < 0.6 {
				_ = b.AddEdge(graph.NodeID(u), graph.NodeID(v), 0.9)
			}
		}
	}
	g := b.Build()
	ix, err := Build(context.Background(), g, Options{Theta: 0.01, MaxPathsPerNode: 20})
	if err != nil {
		t.Fatal(err)
	}
	marked := 0
	for v := 0; v < n; v++ {
		_, _, pot := ix.Gamma(graph.NodeID(v))
		for _, p := range pot {
			if p {
				marked++
			}
		}
	}
	if marked == 0 {
		t.Error("budget cap produced no potential marks")
	}
}

// bruteGamma enumerates all simple paths u→…→v with product ≥ θ by
// recursive reverse DFS and returns the aggregated per-source sums.
func bruteGamma(g *graph.Graph, v graph.NodeID, theta float64) map[graph.NodeID]float64 {
	agg := map[graph.NodeID]float64{}
	onPath := map[graph.NodeID]bool{v: true}
	var rec func(node graph.NodeID, prob float64)
	rec = func(node graph.NodeID, prob float64) {
		in, inw := g.InNeighbors(node)
		for k, u := range in {
			if onPath[u] {
				continue
			}
			p := prob * inw[k]
			if p < theta {
				continue
			}
			agg[u] += p
			onPath[u] = true
			rec(u, p)
			delete(onPath, u)
		}
	}
	rec(v, 1)
	return agg
}

// Property: the index matches brute-force simple-path enumeration on
// random small graphs.
func TestMatchesBruteForce(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(8)
		b := graph.NewBuilder(n)
		for i := 0; i < n*2; i++ {
			u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
			if u == v {
				continue
			}
			_ = b.AddEdge(u, v, 0.2+0.7*rng.Float64())
		}
		g := b.Build()
		theta := 0.05 + 0.3*rng.Float64()
		ix, err := Build(context.Background(), g, Options{Theta: theta})
		if err != nil {
			return false
		}
		for v := 0; v < n; v++ {
			want := bruteGamma(g, graph.NodeID(v), theta)
			srcs, props, _ := ix.Gamma(graph.NodeID(v))
			if len(srcs) != len(want) {
				return false
			}
			for i, u := range srcs {
				if math.Abs(props[i]-want[u]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: every aggregated propagation value is ≥ θ (each contributing
// path is ≥ θ) and every Γ source really has an incoming simple path.
func TestEntriesAtLeastTheta(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(10)
		b := graph.NewBuilder(n)
		for i := 0; i < n*3; i++ {
			u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
			if u == v {
				continue
			}
			_ = b.AddEdge(u, v, 0.1+0.8*rng.Float64())
		}
		g := b.Build()
		ix, err := Build(context.Background(), g, Options{Theta: 0.15})
		if err != nil {
			return false
		}
		for v := 0; v < n; v++ {
			_, props, _ := ix.Gamma(graph.NodeID(v))
			for _, p := range props {
				if p < 0.15-1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestGammaSorted(t *testing.T) {
	g := triangle(t)
	ix, err := Build(context.Background(), g, Options{Theta: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumNodes(); v++ {
		srcs, _, _ := ix.Gamma(graph.NodeID(v))
		for i := 1; i < len(srcs); i++ {
			if srcs[i-1] >= srcs[i] {
				t.Fatalf("Gamma(%d) not sorted: %v", v, srcs)
			}
		}
	}
}

func TestMemoryBytesAndSize(t *testing.T) {
	g := triangle(t)
	ix, _ := Build(context.Background(), g, Options{Theta: 0.05})
	if ix.Size() == 0 || ix.MemoryBytes() <= 0 {
		t.Errorf("Size=%d MemoryBytes=%d", ix.Size(), ix.MemoryBytes())
	}
}

// BenchmarkBuild times the Γ enumeration plus row assembly. data_350k is
// the benchmark harness's dataset at the server's θ, the shape behind
// propidx.build_ms.
func BenchmarkBuild(b *testing.B) {
	b.Run("random3k", func(b *testing.B) {
		g := randomWeighted(rand.New(rand.NewSource(9)), 3000, 18_000, 0.05, 0.5)
		benchBuild(b, g, Options{Theta: 0.05})
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
		benchBuild(b, g, Options{Theta: 0.01})
	})
}

func benchBuild(b *testing.B, g *graph.Graph, opt Options) {
	b.ReportAllocs()
	b.ResetTimer()
	var ix *Index
	for i := 0; i < b.N; i++ {
		var err error
		if ix, err = Build(context.Background(), g, opt); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ix.Size()), "entries")
}

// Property: MaxPotential always equals the maximum prop among the
// potential-marked Gamma entries.
func TestMaxPotentialConsistentWithGamma(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(12)
		b := graph.NewBuilder(n)
		for i := 0; i < n*3; i++ {
			u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
			if u == v {
				continue
			}
			_ = b.AddEdge(u, v, 0.1+0.6*rng.Float64())
		}
		g := b.Build()
		ix, err := Build(context.Background(), g, Options{Theta: 0.1})
		if err != nil {
			return false
		}
		for v := 0; v < n; v++ {
			srcs, props, pot := ix.Gamma(graph.NodeID(v))
			want := 0.0
			for i := range srcs {
				if pot[i] && props[i] > want {
					want = props[i]
				}
			}
			if got := ix.MaxPotential(graph.NodeID(v)); math.Abs(got-want) > 1e-15 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBuildCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		if _, err := Build(ctx, triangle(t), Options{Theta: 0.05, Workers: workers}); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: want context.Canceled, got %v", workers, err)
		}
	}
}
