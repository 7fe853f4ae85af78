package propidx

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/graph"
)

// referenceEnumerate is the map-based enumeration the dense enumerator
// replaced, kept as the oracle: aggregation in a map keyed by source, the
// potential marks in a second map, sources sorted at the end.
func referenceEnumerate(g *graph.Graph, opt Options, v graph.NodeID) row {
	var frames []frame
	var stack []int32
	var cuts []cutRec
	agg := map[graph.NodeID]float64{}

	frames = append(frames, frame{node: v, parent: -1, prob: 1})
	stack = append(stack, 0)
	budget := opt.MaxPathsPerNode
	for len(stack) > 0 {
		fi := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		f := frames[fi]
		if f.parent >= 0 {
			agg[f.node] += f.prob
		}
		in, inw := g.InNeighbors(f.node)
		for k, u := range in {
			if onPath(frames, fi, u) {
				continue
			}
			p := f.prob * inw[k]
			if p < opt.Theta || budget <= 0 {
				cuts = append(cuts, cutRec{node: f.node, prunedIn: u})
				continue
			}
			budget--
			frames = append(frames, frame{node: u, parent: fi, prob: p})
			stack = append(stack, int32(len(frames)-1))
		}
	}

	potentialSet := map[graph.NodeID]bool{}
	for _, c := range cuts {
		if c.prunedIn == v || c.node == v {
			continue
		}
		if _, indexed := agg[c.prunedIn]; !indexed {
			potentialSet[c.node] = true
		}
	}

	r := row{src: make([]graph.NodeID, 0, len(agg))}
	for u := range agg {
		r.src = append(r.src, u)
	}
	sort.Slice(r.src, func(a, b int) bool { return r.src[a] < r.src[b] })
	r.prop = make([]float64, len(r.src))
	r.potential = make([]bool, len(r.src))
	for i, u := range r.src {
		r.prop[i] = agg[u]
		r.potential[i] = potentialSet[u]
	}
	return r
}

func sameRow(a, b row) bool {
	bits := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	return slices.Equal(a.src, b.src) && slices.Equal(bits(a.prop), bits(b.prop)) && slices.Equal(a.potential, b.potential)
}

func randomWeighted(rng *rand.Rand, n, m int, lo, span float64) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		_ = b.AddEdge(u, v, lo+span*rng.Float64())
	}
	return b.Build()
}

// TestEnumerateMatchesMapVersion requires every Γ row — sources,
// propagation bits, potential marks — to equal the map-based
// enumeration's, with one enumerator reused across all targets of all
// graphs the way a Build worker reuses it: the random small graphs of
// TestMatchesBruteForce, denser graphs where paths to one source
// interleave with others in pop order, and a MaxPathsPerNode budget that
// runs out mid-tree.
func TestEnumerateMatchesMapVersion(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	type world struct {
		g   *graph.Graph
		opt Options
	}
	var worlds []world
	for i := 0; i < 40; i++ {
		n := 5 + rng.Intn(8)
		g := randomWeighted(rng, n, n*2, 0.2, 0.7)
		worlds = append(worlds, world{g, Options{Theta: 0.05 + 0.3*rng.Float64()}})
	}
	for i := 0; i < 4; i++ {
		worlds = append(worlds, world{randomWeighted(rng, 200, 1200, 0.05, 0.5), Options{Theta: 0.02}})
	}
	worlds = append(worlds,
		world{randomWeighted(rng, 60, 600, 0.3, 0.6), Options{Theta: 0.01, MaxPathsPerNode: 25}},
		world{randomWeighted(rng, 60, 600, 0.3, 0.6), Options{Theta: 0.01, MaxPathsPerNode: 1}},
	)
	for wi, w := range worlds {
		if err := w.opt.fill(); err != nil {
			t.Fatal(err)
		}
		e := newEnumerator(w.g, w.opt)
		for v := 0; v < w.g.NumNodes(); v++ {
			got, want := e.enumerate(graph.NodeID(v)), referenceEnumerate(w.g, w.opt, graph.NodeID(v))
			if !sameRow(got, want) {
				t.Fatalf("world %d target %d:\n got  %+v\n want %+v", wi, v, got, want)
			}
		}
	}
}

// TestEnumerateEpochWraparound puts an enumerator at the last uint32
// epoch with every node stamped 1, the value the epoch takes after
// wrapping: unless the wrap clears the stamps, a node the next target
// reaches for the first time would read as already in Γ, keep its stale
// sum and mark, and drop out of the row.
func TestEnumerateEpochWraparound(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	g := randomWeighted(rng, 40, 160, 0.2, 0.7)
	opt := Options{Theta: 0.05}
	if err := opt.fill(); err != nil {
		t.Fatal(err)
	}
	e := newEnumerator(g, opt)
	e.epoch = math.MaxUint32
	for i := range e.stamp {
		e.stamp[i] = 1
		e.agg[i] = 0.5
		e.pot[i] = true
	}
	for v := 0; v < 4; v++ {
		got, want := e.enumerate(graph.NodeID(v)), referenceEnumerate(g, opt, graph.NodeID(v))
		if !sameRow(got, want) {
			t.Fatalf("target %d (epoch %d):\n got  %+v\n want %+v", v, e.epoch, got, want)
		}
	}
	if e.epoch != 4 {
		t.Fatalf("epoch %d after four targets from MaxUint32, want 4", e.epoch)
	}
}
