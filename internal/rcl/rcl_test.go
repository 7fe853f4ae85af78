package rcl

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/randwalk"
	"repro/internal/topics"
)

// twoCommunities builds a graph with two dense directed communities of
// size commSize connected by a single weak bridge, plus a topic whose
// nodes split evenly across both communities. RCL-A should cluster the
// topic nodes by community.
func twoCommunities(t testing.TB, commSize int, seed int64) (*graph.Graph, *topics.Space, topics.TopicID) {
	if tt, ok := t.(*testing.T); ok {
		tt.Helper()
	}
	rng := rand.New(rand.NewSource(seed))
	n := 2 * commSize
	b := graph.NewBuilder(n)
	addCommunity := func(lo int) {
		for i := 0; i < commSize; i++ {
			for k := 0; k < 4; k++ {
				j := rng.Intn(commSize)
				if j == i {
					continue
				}
				_ = b.AddEdge(graph.NodeID(lo+i), graph.NodeID(lo+j), 0.3+0.4*rng.Float64())
			}
		}
	}
	addCommunity(0)
	addCommunity(commSize)
	b.MustAddEdge(0, graph.NodeID(commSize), 0.05)
	b.MustAddEdge(graph.NodeID(commSize), 0, 0.05)
	g := b.Build()

	sb := topics.NewSpaceBuilder()
	tid, err := sb.AddTopic("go", "golang news")
	if err != nil {
		t.Fatal(err)
	}
	// 4 topic nodes in each community
	for i := 1; i <= 4; i++ {
		_ = sb.AddNode(tid, graph.NodeID(i))
		_ = sb.AddNode(tid, graph.NodeID(commSize+i))
	}
	return g, sb.Build(), tid
}

func buildSummarizer(t testing.TB, g *graph.Graph, space *topics.Space, opts Options) *Summarizer {
	walks, err := randwalk.Build(context.Background(), g, randwalk.Options{L: 3, R: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(g, space, walks, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	g, space, _ := twoCommunities(t, 20, 1)
	walks, _ := randwalk.Build(context.Background(), g, randwalk.Options{L: 3, R: 4, Seed: 1})
	if _, err := New(nil, space, walks, Options{}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := New(g, nil, walks, Options{}); err == nil {
		t.Error("nil space accepted")
	}
	if _, err := New(g, space, nil, Options{}); err == nil {
		t.Error("nil walk index accepted")
	}
	other := graph.NewBuilder(3).Build()
	otherWalks, _ := randwalk.Build(context.Background(), other, randwalk.Options{L: 2, R: 2, Seed: 1})
	if _, err := New(g, space, otherWalks, Options{}); err == nil {
		t.Error("mismatched walk index accepted")
	}
}

func TestClusterUnknownTopic(t *testing.T) {
	g, space, _ := twoCommunities(t, 20, 1)
	s := buildSummarizer(t, g, space, Options{})
	if _, err := s.Cluster(context.Background(), 99); err == nil {
		t.Error("unknown topic accepted")
	}
	if _, err := s.Summarize(context.Background(), -1); err == nil {
		t.Error("negative topic accepted")
	}
}

func TestClusterCoversAllTopicNodesExactlyOnce(t *testing.T) {
	g, space, tid := twoCommunities(t, 25, 3)
	s := buildSummarizer(t, g, space, Options{CSize: 4, SampleRate: 0.5, Seed: 3})
	groups, err := s.Cluster(context.Background(), tid)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[graph.NodeID]int{}
	for _, grp := range groups {
		if len(grp) == 0 {
			t.Fatal("empty group produced")
		}
		for _, v := range grp {
			seen[v]++
		}
	}
	for _, v := range space.Nodes(tid) {
		if seen[v] != 1 {
			t.Errorf("topic node %d appears %d times across groups (Rule 4 violated)", v, seen[v])
		}
	}
	if len(seen) != len(space.Nodes(tid)) {
		t.Errorf("groups cover %d nodes, want %d", len(seen), len(space.Nodes(tid)))
	}
}

func TestClusterRespectsGroupCap(t *testing.T) {
	g, space, tid := twoCommunities(t, 25, 5)
	const cSize = 4
	s := buildSummarizer(t, g, space, Options{CSize: cSize, SampleRate: 0.5, Seed: 5})
	groups, err := s.Cluster(context.Background(), tid)
	if err != nil {
		t.Fatal(err)
	}
	vt := len(space.Nodes(tid))
	capSize := (vt + cSize - 1) / cSize
	for _, grp := range groups {
		if len(grp) > capSize {
			t.Errorf("group size %d exceeds cap %d", len(grp), capSize)
		}
	}
}

func TestSummarizeWeightsSumToOne(t *testing.T) {
	g, space, tid := twoCommunities(t, 25, 7)
	s := buildSummarizer(t, g, space, Options{CSize: 3, SampleRate: 0.5, Seed: 7})
	sum, err := s.Summarize(context.Background(), tid)
	if err != nil {
		t.Fatal(err)
	}
	if err := sum.Validate(); err != nil {
		t.Fatalf("invalid summary: %v", err)
	}
	// RCL-A migrates every node's mass into some centroid, so the total
	// must be exactly 1 (up to float rounding).
	if got := sum.TotalWeight(); math.Abs(got-1) > 1e-9 {
		t.Errorf("TotalWeight = %v, want 1", got)
	}
	if sum.Len() == 0 {
		t.Error("no representative nodes selected")
	}
	if sum.Len() > len(space.Nodes(tid)) {
		t.Errorf("more reps (%d) than topic nodes (%d)", sum.Len(), len(space.Nodes(tid)))
	}
}

func TestSummarizeEmptyTopic(t *testing.T) {
	g, _, _ := twoCommunities(t, 10, 1)
	sb := topics.NewSpaceBuilder()
	tid, _ := sb.AddTopic("x", "empty topic")
	space := sb.Build()
	s := buildSummarizer(t, g, space, Options{})
	sum, err := s.Summarize(context.Background(), tid)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Len() != 0 {
		t.Errorf("empty topic produced reps: %+v", sum)
	}
}

func TestSummarizeSingleTopicNode(t *testing.T) {
	g, _, _ := twoCommunities(t, 10, 1)
	sb := topics.NewSpaceBuilder()
	tid, _ := sb.AddTopic("x", "solo topic")
	_ = sb.AddNode(tid, 3)
	space := sb.Build()
	s := buildSummarizer(t, g, space, Options{})
	sum, err := s.Summarize(context.Background(), tid)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Len() != 1 || sum.Reps[0].Node != 3 || sum.Reps[0].Weight != 1 {
		t.Errorf("solo topic summary = %+v, want node 3 weight 1", sum)
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	g, space, tid := twoCommunities(t, 20, 9)
	a := buildSummarizer(t, g, space, Options{CSize: 3, Seed: 42})
	b := buildSummarizer(t, g, space, Options{CSize: 3, Seed: 42})
	sa, err := a.Summarize(context.Background(), tid)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.Summarize(context.Background(), tid)
	if err != nil {
		t.Fatal(err)
	}
	if len(sa.Reps) != len(sb.Reps) {
		t.Fatalf("same seed produced different rep counts: %d vs %d", len(sa.Reps), len(sb.Reps))
	}
	for i := range sa.Reps {
		if sa.Reps[i] != sb.Reps[i] {
			t.Fatalf("same seed produced different reps at %d: %+v vs %+v", i, sa.Reps[i], sb.Reps[i])
		}
	}
}

func TestCommunityLocalityOfCentroids(t *testing.T) {
	// With two well-separated communities, no group should mix topic
	// nodes from both sides (the bridge is a single weak edge, so common
	// L-hop reachability across sides is near zero).
	const commSize = 30
	g, space, tid := twoCommunities(t, commSize, 11)
	s := buildSummarizer(t, g, space, Options{CSize: 2, SampleRate: 0.8, Seed: 11})
	groups, err := s.Cluster(context.Background(), tid)
	if err != nil {
		t.Fatal(err)
	}
	mixed := 0
	for _, grp := range groups {
		hasA, hasB := false, false
		for _, v := range grp {
			if int(v) < commSize {
				hasA = true
			} else {
				hasB = true
			}
		}
		if hasA && hasB {
			mixed++
		}
	}
	if mixed > 0 {
		t.Errorf("%d groups mix both communities", mixed)
	}
}

func TestCentralityDefinition(t *testing.T) {
	// Star: 0→1, 0→2, 0→3; plus chain 4→0.
	b := graph.NewBuilder(5)
	b.MustAddEdge(0, 1, 0.5)
	b.MustAddEdge(0, 2, 0.5)
	b.MustAddEdge(0, 3, 0.5)
	b.MustAddEdge(4, 0, 0.5)
	g := b.Build()
	tr := graph.NewTraverser(g)
	group := []graph.NodeID{1, 2, 3}
	// node 0 reaches each member in 1 hop: C = 3/3 = 1
	if got := mapCentrality(tr, 0, group, 4); math.Abs(got-1) > 1e-12 {
		t.Errorf("Centrality(0) = %v, want 1", got)
	}
	// node 4 reaches each member in 2 hops: C = 3/6 = 0.5
	if got := mapCentrality(tr, 4, group, 4); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Centrality(4) = %v, want 0.5", got)
	}
	// node 1 is itself a member (distance 0) and reaches neither 2 nor 3:
	// C = 3/(2*(4+1)) = 0.3 with maxHops=4
	if got := mapCentrality(tr, 1, group, 4); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("Centrality(1) = %v, want 0.3", got)
	}
	// member of its own group counts distance 0
	if got := mapCentrality(tr, 1, []graph.NodeID{1}, 4); got != 1 {
		t.Errorf("Centrality(singleton self) = %v, want 1", got)
	}
	if got := mapCentrality(tr, 0, nil, 4); got != 0 {
		t.Errorf("Centrality(empty group) = %v, want 0", got)
	}
}

// sharedCount counts the elements of a that b holds too.
func sharedCount(a, b []graph.NodeID) int {
	c := 0
	for _, x := range a {
		if slices.Contains(b, x) {
			c++
		}
	}
	return c
}

func TestGroupingRules(t *testing.T) {
	cases := []struct {
		name       string
		a, b       []graph.NodeID // reach sets within the sample
		sampleSize int
		want       pairLabel
	}{
		{
			name:       "rule1 clearly in",
			a:          []graph.NodeID{1, 2, 3, 4},
			b:          []graph.NodeID{1, 2, 3, 4},
			sampleSize: 5,
			want:       labelGrouped,
		},
		{
			name:       "rule2 clearly out",
			a:          []graph.NodeID{1, 2, 3},
			b:          []graph.NodeID{4, 5},
			sampleSize: 6,
			want:       labelSplit,
		},
		{
			name:       "no evidence stays unset",
			a:          nil,
			b:          nil,
			sampleSize: 0,
			want:       labelUnset,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, _ := newPairRules(tc.sampleSize).classify(sharedCount(tc.a, tc.b), len(tc.a)+len(tc.b))
			if got != tc.want {
				t.Errorf("label = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestGroupingRule3Probabilistic(t *testing.T) {
	// GP+ = 0.2, GP- = 0, GP* = 0.8 → Rule 3 with Pr = 0.2/1.0 = 0.2.
	reach := [][]graph.NodeID{{1}, {1}}
	l, pr := newPairRules(5).classify(sharedCount(reach[0], reach[1]), len(reach[0])+len(reach[1]))
	if l != labelRule3 {
		t.Fatalf("label = %d, want Rule 3 (%d)", l, labelRule3)
	}
	grouped := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		if decide(l, pr, rng) {
			grouped++
		}
	}
	frac := float64(grouped) / trials
	if frac < 0.15 || frac > 0.25 {
		t.Errorf("Rule 3 grouping fraction = %v, want ≈0.2", frac)
	}
}

// groupingOf builds the grouped relation over nodes that the pair pass
// would hold for the predicate, deciding pairs in (i, j) order.
func groupingOf(nodes []graph.NodeID, groups func(i, j int) bool) *grouping {
	gr := &grouping{nodes: nodes, off: make([]int32, len(nodes)+1)}
	for i := range nodes {
		for j := i + 1; j < len(nodes); j++ {
			if groups(i, j) {
				gr.to = append(gr.to, int32(j))
			}
		}
		gr.off[i+1] = int32(len(gr.to))
	}
	return gr
}

func TestSetEnumerationTreeRespectsCap(t *testing.T) {
	// Fully groupable 6-clique of topic nodes: unlimited enumeration
	// would create 2^6 sets; the cap must bound it.
	nodes := make([]graph.NodeID, 6)
	for i := range nodes {
		nodes[i] = graph.NodeID(i)
	}
	gr := groupingOf(nodes, func(i, j int) bool { return true })
	sets, _ := setEnumerationTree(context.Background(), gr, 10, nil)
	if len(sets) > 10 {
		t.Errorf("cap violated: %d sets", len(sets))
	}
	full, _ := setEnumerationTree(context.Background(), gr, 1000, nil)
	// All 2^6−1 non-empty subsets are groupable.
	if len(full) != 63 {
		t.Errorf("full enumeration produced %d sets, want 63", len(full))
	}
}

// TestSetEnumerationTreeMatchesSiblingScan: on random relations and
// budgets, the tree equals Algorithm 2 read literally — every level
// built by scanning all later sets of the level for siblings, each
// candidate checked against every member — set for set and in order.
func TestSetEnumerationTreeMatchesSiblingScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(14)
		density := rng.Float64()
		nodes := make([]graph.NodeID, n)
		in := make([][]bool, n)
		for i := range in {
			in[i] = make([]bool, n)
			for j := i + 1; j < n; j++ {
				in[i][j] = rng.Float64() < density
			}
		}
		maxNodes := n + rng.Intn(4*n+8)
		var want, level []nodeSet
		for i := 0; i < n; i++ {
			level = append(level, nodeSet{i})
		}
		want = append(want, level...)
		for budget := maxNodes - n; len(level) > 1 && budget > 0; {
			var next []nodeSet
			for xi := 0; xi < len(level) && budget > 0; xi++ {
				for yi := xi + 1; yi < len(level) && budget > 0; yi++ {
					sx, sy := level[xi], level[yi]
					add := sy[len(sy)-1]
					if !sameButLast(sx, sy) || slices.ContainsFunc(sx, func(m int) bool { return !in[m][add] }) {
						continue
					}
					next = append(next, append(slices.Clone(sx), add))
					budget--
				}
			}
			want = append(want, next...)
			level = next
		}
		got, err := setEnumerationTree(context.Background(), groupingOf(nodes, func(i, j int) bool { return in[i][j] }), maxNodes, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("trial %d (n=%d, maxNodes=%d): tree %v, want %v", trial, n, maxNodes, got, want)
		}
	}
}

// Property: no-overlap grouping always partitions the topic nodes
// regardless of the (random) label matrix.
func TestNoOverlapGroupingPartitions(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		nodes := make([]graph.NodeID, n)
		for i := range nodes {
			nodes[i] = graph.NodeID(i * 3)
		}
		gr := groupingOf(nodes, func(i, j int) bool { return pairLabel(rng.Intn(3)) == labelGrouped })
		sets, _ := setEnumerationTree(context.Background(), gr, 200, nil)
		groups := noOverlapGrouping(gr, sets, 1+rng.Intn(4), nil)
		seen := map[graph.NodeID]int{}
		for _, grp := range groups {
			for _, v := range grp {
				seen[v]++
			}
		}
		if len(seen) != n {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSummarize(b *testing.B) {
	g, space, tid := twoCommunities(b, 50, 1)
	s := buildSummarizer(b, g, space, Options{CSize: 4, SampleRate: 0.3, Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Summarize(context.Background(), tid); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRefineCentroidImprovesOrKeeps(t *testing.T) {
	// Star: hub 0 reaches every group member in 1 hop; node 4 reaches the
	// hub only. Starting from a candidate set that selects node 4, the
	// §3.2 hill-climbing refinement must move the centroid to the hub.
	b := graph.NewBuilder(6)
	b.MustAddEdge(0, 1, 0.5)
	b.MustAddEdge(0, 2, 0.5)
	b.MustAddEdge(0, 3, 0.5)
	b.MustAddEdge(4, 0, 0.5)
	b.MustAddEdge(5, 4, 0.5)
	g := b.Build()
	walks, err := randwalk.Build(context.Background(), g, randwalk.Options{L: 3, R: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	sb := topics.NewSpaceBuilder()
	tid, _ := sb.AddTopic("x", "star topic")
	space := sb.Build()
	_ = tid
	s, err := New(g, space, walks, Options{RefineCentroid: true})
	if err != nil {
		t.Fatal(err)
	}
	group := []graph.NodeID{1, 2, 3}
	tr := graph.NewTraverser(g)
	startScore := mapCentrality(tr, 5, group, 6)
	best, bestScore := s.refineCentroid(5, startScore, group, 6, s.arena())
	if best != 0 {
		t.Errorf("refinement ended at node %d, want hub 0", best)
	}
	if bestScore <= startScore {
		t.Errorf("refinement did not improve: %v -> %v", startScore, bestScore)
	}
	// Starting at the optimum, refinement must stay there.
	hubScore := mapCentrality(tr, 0, group, 6)
	still, _ := s.refineCentroid(0, hubScore, group, 6, s.arena())
	if still != 0 {
		t.Errorf("refinement moved away from the optimum to %d", still)
	}
}

func TestSummarizeWithRefinementStillValid(t *testing.T) {
	g, space, tid := twoCommunities(t, 20, 13)
	s := buildSummarizer(t, g, space, Options{CSize: 3, Seed: 13, RefineCentroid: true})
	sum, err := s.Summarize(context.Background(), tid)
	if err != nil {
		t.Fatal(err)
	}
	if err := sum.Validate(); err != nil {
		t.Fatalf("refined summary invalid: %v", err)
	}
	if math.Abs(sum.TotalWeight()-1) > 1e-9 {
		t.Errorf("refined TotalWeight = %v, want 1", sum.TotalWeight())
	}
}

func TestRepCountCapKeepsHeaviest(t *testing.T) {
	g, space, tid := twoCommunities(t, 25, 17)
	uncapped := buildSummarizer(t, g, space, Options{CSize: 2, Seed: 17})
	capped := buildSummarizer(t, g, space, Options{CSize: 2, Seed: 17, RepCount: 2})
	full, err := uncapped.Summarize(context.Background(), tid)
	if err != nil {
		t.Fatal(err)
	}
	trimmed, err := capped.Summarize(context.Background(), tid)
	if err != nil {
		t.Fatal(err)
	}
	if trimmed.Len() > 2 {
		t.Fatalf("cap ignored: %d reps", trimmed.Len())
	}
	if full.Len() <= 2 {
		t.Skip("uncapped summary already within cap")
	}
	// The kept reps must be the heaviest of the full set.
	minKept := 1.0
	for _, rp := range trimmed.Reps {
		if rp.Weight < minKept {
			minKept = rp.Weight
		}
	}
	dropped := 0
	for _, rp := range full.Reps {
		if !trimmed.Contains(rp.Node) {
			dropped++
			if rp.Weight > minKept+1e-12 {
				t.Errorf("dropped rep %d (w=%v) heavier than kept minimum %v", rp.Node, rp.Weight, minKept)
			}
		}
	}
	if dropped == 0 {
		t.Error("cap dropped nothing despite larger full set")
	}
}
