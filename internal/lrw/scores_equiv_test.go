package lrw

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/prob"
	"repro/internal/randwalk"
	"repro/internal/summary"
	"repro/internal/topics"
)

// referenceScores is Equation 5 written out literally, with the two skips
// the kernel used to carry: the prev[u] = 0 skip the plan dropped, and the
// d[u] ≤ 0 skip it folded into a zero coefficient. H+hFloor and D_T are
// recomputed here in the kernel's accumulation order rather than read from
// the plan.
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

// TestScoresMatchSkippingLoop compares a lone topic's lane of scoresLanes
// with the skipping loop bit for bit on graphs built to keep prev sparse:
// three components that share no edge (a topic confined to one leaves the
// others all-zero for every iteration), dead-end sinks (no out-edges, so
// D_T = 0), nodes with no edges at all, and topics placed on each of those.
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
				lanes, err := scoresLanes(context.Background(), g, walks, [][]graph.NodeID{vt}, opt, sc)
				if err != nil {
					t.Fatal(err)
				}
				want := referenceScores(g, walks, vt, opt)
				for v := range want {
					if got := lanes[v][0]; math.Float64bits(got) != math.Float64bits(want[v]) {
						t.Fatalf("round %d topic set %d λ=%v node %d: got %x (%g), want %x (%g)",
							round, ti, opt.Lambda, v, math.Float64bits(got), got, math.Float64bits(want[v]), want[v])
					}
				}
			}
		}
	}
}

// zooWorld is one (graph, walks) pair of TestPlanEqualsReference's zoo.
type zooWorld struct {
	g     *graph.Graph
	walks *randwalk.Index
}

// zooGraph draws a random graph on n nodes whose shape rotates with seed so
// the zoo as a whole holds every in-degree pattern the propagation plan
// groups by: sources (in-degree 0, out-edges only), sinks (in-edges only, so
// D_i = 0), isolated nodes, one hub alone in its in-degree class, three
// co-hubs sharing the maximum in-degree, two components with no edge
// between them, and the one-node graph.
func zooGraph(rng *rand.Rand, seed, n int) *graph.Graph {
	b := graph.NewBuilder(n)
	if n == 1 {
		return b.Build()
	}
	// Node roles by position: the last three stay isolated, the three before
	// them are sinks, the three before those are sources; the rest are
	// ordinary and split into two halves that share no edge when seed%5 == 4.
	ordinary := n - 9
	sources, sinks := ordinary, ordinary+3
	edge := func(u, v int) {
		if u != v {
			b.MustAddEdge(graph.NodeID(u), graph.NodeID(v), 0.05+0.9*rng.Float64())
		}
	}
	half := ordinary / 2
	for i := 0; i < ordinary*3; i++ {
		u, v := rng.Intn(ordinary), rng.Intn(ordinary)
		if seed%5 == 4 && (u < half) != (v < half) {
			continue
		}
		edge(u, v)
	}
	for s := sources; s < sources+3; s++ {
		edge(s, rng.Intn(half))
	}
	for s := sinks; s < sinks+3; s++ {
		edge(rng.Intn(half), s)
	}
	switch seed % 5 {
	case 0, 1: // one hub every ordinary node and source points at
		for u := 0; u < sinks; u++ {
			edge(u, 0)
		}
	case 2, 3: // three co-hubs, each pointed at by everything that has out-edges
		for u := 0; u < sinks; u++ {
			edge(u, 0)
			edge(u, 1)
			edge(u, 2)
		}
	}
	return b.Build()
}

// reweigh keeps g's topology and redraws its weights: same n, same m, same
// in-degree classes, other coefficients.
func reweigh(rng *rand.Rand, g *graph.Graph) *graph.Graph {
	b := graph.NewBuilder(g.NumNodes())
	for _, e := range g.Edges() {
		b.MustAddEdge(e.From, e.To, 0.05+0.9*rng.Float64())
	}
	return b.Build()
}

// zooTopics are topic sets placed on every role zooGraph hands out.
func zooTopics(rng *rand.Rand, g *graph.Graph) [][]graph.NodeID {
	n := g.NumNodes()
	if n == 1 {
		return [][]graph.NodeID{{0}}
	}
	id := func(v int) graph.NodeID { return graph.NodeID(v) }
	ordinary := n - 9
	sets := [][]graph.NodeID{
		{id(rng.Intn(ordinary / 2))},             // one node
		{0, 1, 2, 3},                             // the hubs, inside the first component
		{id(ordinary), id(ordinary + 1)},         // sources
		{id(ordinary + 3)},                       // a sink
		{id(n - 1)},                              // isolated
		{4, id(ordinary + 4), id(n - 2)},         // ordinary, sink and isolated together
		{id(ordinary/2 + 1), id(ordinary/2 + 2)}, // inside the second component
	}
	all := make([]graph.NodeID, n)
	for v := range all {
		all[v] = id(v)
	}
	return append(sets, all)
}

// TestPlanEqualsReference drives the production Equation 5 and the literal
// referenceScores over 240 seeded graphs and requires equal bits in all n
// scores, the same representative order, and the same summary. One scratch
// serves the whole zoo and, within a seed, alternates between three
// (graph, walks) pairs of equal size — a second graph of the same topology
// with other weights, and the first graph under a second walk index — so
// topic-free state kept from the previous pair shows up as a wrong bit.
// Every seed's topics then go through the block path in blocks of 1, 2, 3
// and 4 (checkBlocks), with an empty topic and one topic in two lanes, and
// through every four-lane kernel the CPU runs.
func TestPlanEqualsReference(t *testing.T) {
	ctx := context.Background()
	kernels := kernels4(t)
	sc := new(scratch)
	var sawSource, sawSink, sawIsolated, sawLoneHub, sawSharedMax, sawSingleNode, sawTwoComponents bool
	graphs := 0
	for seed := 0; seed < 120; seed++ {
		rng := rand.New(rand.NewSource(int64(1000 + seed)))
		L := 1 + 5*(seed%2)
		build := func(g *graph.Graph, walkSeed int64) zooWorld {
			walks, err := randwalk.Build(ctx, g, randwalk.Options{L: L, R: 3, Seed: walkSeed})
			if err != nil {
				t.Fatal(err)
			}
			return zooWorld{g: g, walks: walks}
		}
		n := 20 + rng.Intn(45)
		if seed%10 == 9 {
			n = 1
		}
		g1 := zooGraph(rng, seed, n)
		g2 := zooGraph(rng, seed, n)
		if seed%3 == 0 {
			g2 = reweigh(rng, g1)
		}
		graphs += 2
		worlds := []zooWorld{build(g1, int64(seed)), build(g2, int64(seed)+7), build(g1, int64(seed)+13)}
		topicSets := zooTopics(rng, g1)

		// What this seed adds to the zoo.
		maxDeg, atMax := 0, 0
		for v := 0; v < g1.NumNodes(); v++ {
			in, out := g1.InDegree(graph.NodeID(v)), g1.OutDegree(graph.NodeID(v))
			sawSource = sawSource || (in == 0 && out > 0)
			sawSink = sawSink || (in > 0 && out == 0)
			sawIsolated = sawIsolated || (in == 0 && out == 0 && g1.NumNodes() > 1)
			switch {
			case in > maxDeg:
				maxDeg, atMax = in, 1
			case in == maxDeg:
				atMax++
			}
		}
		sawLoneHub = sawLoneHub || (maxDeg > 0 && atMax == 1)
		sawSharedMax = sawSharedMax || (maxDeg > 0 && atMax >= 3)
		sawSingleNode = sawSingleNode || g1.NumNodes() == 1
		sawTwoComponents = sawTwoComponents || (seed%5 == 4 && g1.NumNodes() > 1)

		sb := topics.NewSpaceBuilder()
		for ti, vt := range topicSets {
			tid, err := sb.AddTopic("zoo", fmt.Sprintf("topic %d", ti))
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range vt {
				_ = sb.AddNode(tid, v)
			}
		}
		// One more topic, with no nodes, for the blocks below only.
		empty, err := sb.AddTopic("zoo", "empty")
		if err != nil {
			t.Fatal(err)
		}
		space := sb.Build()

		opts := []Options{{}, {Lambda: 0.5, RepCount: 5}}
		for ti := range topicSets {
			vt := space.Nodes(topics.TopicID(ti))
			for wi, w := range worlds {
				opt := opts[(ti+wi)%2]
				opt.fill()
				lanes, err := scoresLanes(ctx, w.g, w.walks, [][]graph.NodeID{vt}, opt, sc)
				if err != nil {
					t.Fatal(err)
				}
				want := referenceScores(w.g, w.walks, vt, opt)
				got := make([]float64, len(want))
				for v := range want {
					if got[v] = lanes[v][0]; math.Float64bits(got[v]) != math.Float64bits(want[v]) {
						t.Fatalf("seed %d world %d topic set %d node %d: got %x (%g), want %x (%g)",
							seed, wi, ti, v, math.Float64bits(got[v]), got[v], math.Float64bits(want[v]), want[v])
					}
				}

				reps, err := selectReps(ctx, got, len(vt), opt, sc)
				if err != nil {
					t.Fatal(err)
				}
				wantReps := referenceReps(want, len(vt), opt)
				if !slices.Equal(reps, wantReps) {
					t.Fatalf("seed %d world %d topic set %d: reps %v, want %v", seed, wi, ti, reps, wantReps)
				}

				s, err := New(w.g, space, w.walks, opt)
				if err != nil {
					t.Fatal(err)
				}
				sum, err := s.Summarize(ctx, topics.TopicID(ti))
				if err != nil {
					t.Fatal(err)
				}
				wantSum := MigrateInfluence(topics.TopicID(ti), w.walks, vt, wantReps)
				if len(sum.Reps) != len(wantSum.Reps) {
					t.Fatalf("seed %d world %d topic set %d: %d weighted reps, want %d", seed, wi, ti, len(sum.Reps), len(wantSum.Reps))
				}
				for j, r := range sum.Reps {
					if r.Node != wantSum.Reps[j].Node || math.Float64bits(r.Weight) != math.Float64bits(wantSum.Reps[j].Weight) {
						t.Fatalf("seed %d world %d topic set %d rep %d: got %+v, want %+v", seed, wi, ti, j, r, wantSum.Reps[j])
					}
				}
			}
		}

		// The same topics through the block path, Lanes and fewer at a
		// time: every topic, then the first again, so some block holds one
		// topic in two lanes; the empty topic rides in front.
		seq := []topics.TopicID{empty}
		for ti := range topicSets {
			seq = append(seq, topics.TopicID(ti))
		}
		seq = append(seq, 0)
		for wi, w := range worlds {
			for size := 1; size <= Lanes; size++ {
				checkBlocks(t, fmt.Sprintf("seed %d world %d blocks of %d", seed, wi, size), w, space, seq, size, opts[(wi+size)%2], sc, kernels)
			}
		}
	}
	if graphs < 200 {
		t.Errorf("zoo holds %d graphs, want ≥ 200", graphs)
	}
	for name, saw := range map[string]bool{
		"a source (in-degree 0)": sawSource, "a sink (D_i = 0)": sawSink, "an isolated node": sawIsolated,
		"a hub alone in its in-degree class": sawLoneHub, "several nodes sharing the maximum in-degree": sawSharedMax,
		"n = 1": sawSingleNode, "two components": sawTwoComponents,
	} {
		if !saw {
			t.Errorf("the zoo never contained %s", name)
		}
	}
}

// checkBlocks runs seq through the block path on sc in chunks of size
// topics. Per chunk, the topics with nodes go through one scoresLanes
// pass, and each lane must hold referenceScores' bits, select the
// reference representative order, and leave the unused lanes zero; the
// same pass replayed through each of kernels must hold the same bits; then
// summarizeBlock over the whole chunk must return the reference summary
// for every topic, empty ones included.
func checkBlocks(t *testing.T, where string, w zooWorld, space *topics.Space, seq []topics.TopicID, size int, opt Options, sc *scratch, kernels []kernel4) {
	t.Helper()
	ctx := context.Background()
	opt.fill()
	for lo := 0; lo < len(seq); lo += size {
		chunk := seq[lo:min(lo+size, len(seq))]
		var vts [][]graph.NodeID
		for _, ti := range chunk {
			if vt := space.Nodes(ti); len(vt) > 0 {
				vts = append(vts, vt)
			}
		}
		if len(vts) > 0 {
			lanes, err := scoresLanes(ctx, w.g, w.walks, vts, opt, sc)
			if err != nil {
				t.Fatal(err)
			}
			replays := make([][][Lanes]float64, len(kernels))
			for ki, k := range kernels {
				replays[ki] = replayLanes(k, &sc.plan, w.walks.L, opt.Lambda, sc.pStar)
			}
			col := make([]float64, w.g.NumNodes())
			for j, vt := range vts {
				want := referenceScores(w.g, w.walks, vt, opt)
				for v := range want {
					if col[v] = lanes[v][j]; math.Float64bits(col[v]) != math.Float64bits(want[v]) {
						t.Fatalf("%s, chunk at %d lane %d node %d: got %x (%g), want %x (%g)",
							where, lo, j, v, math.Float64bits(col[v]), col[v], math.Float64bits(want[v]), want[v])
					}
					for ki, k := range kernels {
						if got := replays[ki][v][j]; math.Float64bits(got) != math.Float64bits(want[v]) {
							t.Fatalf("%s, chunk at %d lane %d node %d, %s kernel: got %x (%g), want %x (%g)",
								where, lo, j, v, k.name, math.Float64bits(got), got, math.Float64bits(want[v]), want[v])
						}
					}
				}
				reps, err := selectReps(ctx, col, len(vt), opt, sc)
				if err != nil {
					t.Fatal(err)
				}
				if wantReps := referenceReps(want, len(vt), opt); !slices.Equal(reps, wantReps) {
					t.Fatalf("%s, chunk at %d lane %d: reps %v, want %v", where, lo, j, reps, wantReps)
				}
			}
			for v := range lanes {
				for j := len(vts); j < Lanes; j++ {
					if lanes[v][j] != 0 {
						t.Fatalf("%s, chunk at %d: unused lane %d holds %g at node %d", where, lo, j, lanes[v][j], v)
					}
				}
			}
		}

		out := make([]summary.Summary, len(chunk))
		if err := summarizeBlock(ctx, w.g, space, w.walks, chunk, opt, sc, out); err != nil {
			t.Fatal(err)
		}
		for i, ti := range chunk {
			want := summary.New(ti, nil)
			if vt := space.Nodes(ti); len(vt) > 0 {
				want = MigrateInfluence(ti, w.walks, vt, referenceReps(referenceScores(w.g, w.walks, vt, opt), len(vt), opt))
			}
			if summary.Digest([]summary.Summary{out[i]}) != summary.Digest([]summary.Summary{want}) {
				t.Fatalf("%s, chunk at %d: topic %d summarized to %+v, want %+v", where, lo, ti, out[i], want)
			}
		}
	}
}

// referenceReps is Algorithm 7's selection by a full sort: highest score
// first, ties by node ID, cut at RepCount or ⌈μ·|V_t|⌉.
func referenceReps(scores []float64, topicNodes int, opt Options) []graph.NodeID {
	opt.fill()
	count := opt.RepCount
	if count <= 0 {
		count = int(opt.Mu*float64(topicNodes) + 0.999999)
	}
	count = min(max(count, 1), len(scores))
	order := make([]graph.NodeID, len(scores))
	for v := range order {
		order[v] = graph.NodeID(v)
	}
	sort.SliceStable(order, func(i, j int) bool { return scores[order[i]] > scores[order[j]] })
	return order[:count]
}
