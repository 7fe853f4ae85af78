package lrw

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/prob"
	"repro/internal/randwalk"
)

// referenceScores is Equation 5 written out literally, with the two skips
// the kernel used to carry: the prev[u] = 0 skip scoresInto dropped, and
// the d[u] ≤ 0 skip it kept. H+hFloor and D_T are recomputed here in the
// kernel's accumulation order rather than read from the scratch cache.
func referenceScores(g *graph.Graph, walks *randwalk.Index, vt []graph.NodeID, opt Options) []float64 {
	opt.fill()
	n := g.NumNodes()
	pStar := make([]float64, n)
	for _, v := range vt {
		pStar[v] = 1.0 / float64(len(vt))
	}
	prev, cur := make([]float64, n), make([]float64, n)
	copy(prev, pStar)
	hPlus, d := make([]float64, n), make([]float64, n)
	for i := 1; i <= walks.L; i++ {
		for v, h := range walks.VisitFreqRow(i) {
			hPlus[v] = h + hFloor
		}
		for u := 0; u < n; u++ {
			nbrs, ws := g.OutNeighbors(graph.NodeID(u))
			sum := 0.0
			for k, w := range nbrs {
				sum += ws[k] * hPlus[w]
			}
			d[u] = sum
		}
		for v := 0; v < n; v++ {
			in, inw := g.InNeighbors(graph.NodeID(v))
			acc := 0.0
			for k, u := range in {
				if math.Float64bits(prev[u]) == 0 || d[u] <= 0 {
					continue
				}
				acc += inw[k] * hPlus[v] / d[u] * prev[u]
			}
			cur[v] = prob.Clamp01((1-opt.Lambda)*pStar[v] + opt.Lambda*acc)
		}
		prev, cur = cur, prev
	}
	return prev
}

// TestScoresMatchSkippingLoop compares scoresInto with the skipping loop
// bit for bit on graphs built to keep prev sparse: three components that
// share no edge (a topic confined to one leaves the others all-zero for
// every iteration), dead-end sinks (no out-edges, so D_T = 0), nodes with
// no edges at all, and topics placed on each of those.
func TestScoresMatchSkippingLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for round := 0; round < 6; round++ {
		const comp, comps = 60, 3
		n := comp*comps + 10 // the last ten nodes stay isolated
		b := graph.NewBuilder(n)
		for c := 0; c < comps; c++ {
			base := c * comp
			// The last five nodes of a component are sinks: edges enter
			// them, none leave.
			for i := 0; i < comp*4; i++ {
				u := graph.NodeID(base + rng.Intn(comp-5))
				v := graph.NodeID(base + rng.Intn(comp))
				if u == v {
					continue
				}
				_ = b.AddEdge(u, v, 0.05+0.9*rng.Float64())
			}
		}
		g := b.Build()
		walks, err := randwalk.Build(context.Background(), g, randwalk.Options{L: 5, R: 4, Seed: int64(round)})
		if err != nil {
			t.Fatal(err)
		}
		isolated := graph.NodeID(n - 1)
		sink := graph.NodeID(comp - 1)
		topicSets := [][]graph.NodeID{
			{3},                         // one node: prev stays zero almost everywhere
			{3, 17, 41},                 // inside one component
			{2, comp + 2, 2*comp + 2},   // one node in each component
			{isolated},                  // a topic no edge touches
			{isolated, 5, isolated - 3}, // isolated nodes beside a connected one
			{sink},                      // a dead end: its mass has nowhere to go
		}
		all := make([]graph.NodeID, n)
		for i := range all {
			all[i] = graph.NodeID(i)
		}
		topicSets = append(topicSets, all)

		sc := new(scratch) // one scratch for every topic, as the pool reuses it
		for ti, vt := range topicSets {
			for _, opt := range []Options{{}, {Lambda: 0.5}} {
				got, err := scoresInto(context.Background(), g, walks, vt, opt, sc)
				if err != nil {
					t.Fatal(err)
				}
				want := referenceScores(g, walks, vt, opt)
				for v := range want {
					if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
						t.Fatalf("round %d topic set %d λ=%v node %d: got %x (%g), want %x (%g)",
							round, ti, opt.Lambda, v, math.Float64bits(got[v]), got[v], math.Float64bits(want[v]), want[v])
					}
				}
			}
		}
	}
}
