package lrw

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

// hubGraph builds a graph where node 0 is a strong hub pointed at by all
// topic nodes, so the diversified PageRank must rank it highly.
func hubGraph(t testing.TB) (*graph.Graph, *topics.Space, topics.TopicID) {
	b := graph.NewBuilder(12)
	for v := 1; v <= 6; v++ {
		b.MustAddEdge(graph.NodeID(v), 0, 0.8)
		b.MustAddEdge(0, graph.NodeID(v), 0.2)
	}
	// a few distractor edges among outsiders
	b.MustAddEdge(7, 8, 0.3)
	b.MustAddEdge(8, 9, 0.3)
	b.MustAddEdge(9, 10, 0.3)
	b.MustAddEdge(10, 11, 0.3)
	g := b.Build()

	sb := topics.NewSpaceBuilder()
	tid, err := sb.AddTopic("go", "golang")
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= 6; v++ {
		_ = sb.AddNode(tid, graph.NodeID(v))
	}
	return g, sb.Build(), tid
}

func buildWalks(t testing.TB, g *graph.Graph, L, R int) *randwalk.Index {
	ix, err := randwalk.Build(context.Background(), g, randwalk.Options{L: L, R: R, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// lone ranks vt the way summarizeBlock ranks a topic alone in its pass —
// lane 0 of one scoresLanes pass, copied out — and returns those scores and
// the representatives selectReps picks from them; nil for an empty topic
// or graph.
func lone(g *graph.Graph, walks *randwalk.Index, vt []graph.NodeID, opt Options) ([]float64, []graph.NodeID) {
	if g.NumNodes() == 0 || len(vt) == 0 {
		return nil, nil
	}
	opt.fill()
	sc := getScratch()
	defer putScratch(sc)
	lanes, _ := scoresLanes(context.Background(), g, walks, [][]graph.NodeID{vt}, opt, sc)
	for v := range sc.scores {
		sc.scores[v] = lanes[v][0]
	}
	reps, _ := selectReps(context.Background(), sc.scores, len(vt), opt, sc)
	return slices.Clone(sc.scores), slices.Clone(reps)
}

func TestNewValidation(t *testing.T) {
	g, space, _ := hubGraph(t)
	walks := buildWalks(t, g, 3, 4)
	if _, err := New(nil, space, walks, Options{}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := New(g, nil, walks, Options{}); err == nil {
		t.Error("nil space accepted")
	}
	if _, err := New(g, space, nil, Options{}); err == nil {
		t.Error("nil walks accepted")
	}
	small := graph.NewBuilder(2).Build()
	smallWalks := buildWalks(t, small, 2, 2)
	if _, err := New(g, space, smallWalks, Options{}); err == nil {
		t.Error("mismatched walks accepted")
	}
}

func TestSummarizeUnknownTopic(t *testing.T) {
	g, space, _ := hubGraph(t)
	s, err := New(g, space, buildWalks(t, g, 3, 4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Summarize(context.Background(), 42); err == nil {
		t.Error("unknown topic accepted")
	}
}

func TestSummarizeEmptyTopic(t *testing.T) {
	g, _, _ := hubGraph(t)
	sb := topics.NewSpaceBuilder()
	tid, _ := sb.AddTopic("x", "nobody talks about this")
	space := sb.Build()
	s, err := New(g, space, buildWalks(t, g, 3, 4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := s.Summarize(context.Background(), tid)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Len() != 0 {
		t.Errorf("empty topic produced reps: %+v", sum)
	}
}

func TestRepNodesRanksHubFirst(t *testing.T) {
	g, space, tid := hubGraph(t)
	walks := buildWalks(t, g, 4, 16)
	_, reps := lone(g, walks, space.Nodes(tid), Options{RepCount: 3})
	if len(reps) != 3 {
		t.Fatalf("selected %d representatives, want 3", len(reps))
	}
	// Hub node 0 receives reinforced rank from all six topic nodes and
	// must be among the top representatives.
	found := false
	for _, r := range reps {
		if r == 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("hub node 0 not selected: %v", reps)
	}
}

func TestRepNodesCountSelection(t *testing.T) {
	g, space, tid := hubGraph(t)
	walks := buildWalks(t, g, 3, 8)
	vt := space.Nodes(tid) // 6 topic nodes
	cases := []struct {
		name string
		opt  Options
		want int
	}{
		{"explicit count", Options{RepCount: 4}, 4},
		{"mu fraction", Options{Mu: 0.5}, 3},
		{"mu rounds up", Options{Mu: 0.4}, 3}, // ceil(2.4) = 3
		{"default mu", Options{}, 2},          // ceil(0.2*6) = 2
		{"count capped at n", Options{RepCount: 99}, g.NumNodes()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, reps := lone(g, walks, vt, tc.opt)
			if len(reps) != tc.want {
				t.Errorf("got %d reps, want %d", len(reps), tc.want)
			}
		})
	}
}

func TestRepNodesEmptyInputs(t *testing.T) {
	g, space, tid := hubGraph(t)
	walks := buildWalks(t, g, 3, 4)
	if _, got := lone(g, walks, nil, Options{}); got != nil {
		t.Errorf("representatives of no topic nodes = %v, want nil", got)
	}
	empty := graph.NewBuilder(0).Build()
	emptyWalks := buildWalks(t, empty, 2, 2)
	if _, got := lone(empty, emptyWalks, space.Nodes(tid), Options{}); got != nil {
		t.Errorf("representatives on an empty graph = %v, want nil", got)
	}
}

func TestScoresFiniteNonNegative(t *testing.T) {
	g, space, tid := hubGraph(t)
	walks := buildWalks(t, g, 4, 8)
	scores, _ := lone(g, walks, space.Nodes(tid), Options{})
	for v, s := range scores {
		if math.IsNaN(s) || math.IsInf(s, 0) || s < 0 {
			t.Fatalf("score[%d] = %v", v, s)
		}
	}
}

func TestScoresTopicPriorMatters(t *testing.T) {
	// With λ→0 the scores collapse to the prior: topic nodes get 1/|V_t|
	// (1−λ) and others ~0.
	g, space, tid := hubGraph(t)
	walks := buildWalks(t, g, 3, 8)
	scores, _ := lone(g, walks, space.Nodes(tid), Options{Lambda: 0.01})
	vt := space.Nodes(tid)
	isTopic := map[graph.NodeID]bool{}
	for _, v := range vt {
		isTopic[v] = true
	}
	minTopic, maxOther := math.Inf(1), 0.0
	for v, s := range scores {
		if isTopic[graph.NodeID(v)] {
			if s < minTopic {
				minTopic = s
			}
		} else if s > maxOther {
			maxOther = s
		}
	}
	if minTopic <= maxOther {
		t.Errorf("with tiny λ topic nodes should outrank others: minTopic=%v maxOther=%v", minTopic, maxOther)
	}
}

func TestMigrateInfluenceBasics(t *testing.T) {
	g, space, tid := hubGraph(t)
	walks := buildWalks(t, g, 4, 16)
	vt := space.Nodes(tid)
	_, reps := lone(g, walks, vt, Options{RepCount: 3})
	sum := MigrateInfluence(tid, walks, vt, reps)
	if err := sum.Validate(); err != nil {
		t.Fatalf("invalid summary: %v", err)
	}
	if sum.Len() != 3 {
		t.Errorf("summary has %d reps, want 3 (zero-weight reps retained)", sum.Len())
	}
	// Every topic node can reach the hub directly, so essentially all
	// mass should migrate: total weight close to 1.
	if tw := sum.TotalWeight(); tw < 0.5 {
		t.Errorf("TotalWeight = %v, want most mass migrated", tw)
	}
}

func TestMigrateInfluenceSelfAbsorption(t *testing.T) {
	// When a representative IS a topic node, it absorbs that node at
	// distance 0 even if no sampled walk connects them.
	b := graph.NewBuilder(3)
	b.MustAddEdge(0, 1, 0.5)
	b.MustAddEdge(1, 2, 0.5)
	g := b.Build()
	walks := buildWalks(t, g, 2, 2)
	vt := []graph.NodeID{2} // dead-end topic node
	sum := MigrateInfluence(0, walks, vt, []graph.NodeID{2})
	if w := sum.Weight(2); math.Abs(w-1) > 1e-12 {
		t.Errorf("self-absorbing rep weight = %v, want 1", w)
	}
}

func TestMigrateInfluenceEmpty(t *testing.T) {
	g, space, tid := hubGraph(t)
	walks := buildWalks(t, g, 3, 4)
	if got := MigrateInfluence(tid, walks, nil, []graph.NodeID{1}); got.Len() != 0 {
		t.Errorf("no topic nodes: %+v", got)
	}
	if got := MigrateInfluence(tid, walks, space.Nodes(tid), nil); got.Len() != 0 {
		t.Errorf("no reps: %+v", got)
	}
}

// Property: the migrated weights are a sub-distribution — non-negative and
// summing to at most 1 — for arbitrary random graphs, topic sets and rep
// sets.
func TestMigrateInfluenceMassBound(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(20)
		b := graph.NewBuilder(n)
		for i := 0; i < n*3; i++ {
			u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
			if u == v {
				continue
			}
			_ = b.AddEdge(u, v, 0.1+0.8*rng.Float64())
		}
		g := b.Build()
		walks, err := randwalk.Build(context.Background(), g, randwalk.Options{L: 3, R: 3, Seed: seed})
		if err != nil {
			return false
		}
		var vt, reps []graph.NodeID
		for v := 0; v < n; v++ {
			if rng.Float64() < 0.3 {
				vt = append(vt, graph.NodeID(v))
			}
			if rng.Float64() < 0.2 {
				reps = append(reps, graph.NodeID(v))
			}
		}
		sum := MigrateInfluence(0, walks, vt, reps)
		return sum.Validate() == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: full migration — if the rep set equals the topic set, every
// topic node self-absorbs and the total weight is exactly 1.
func TestMigrateInfluenceFullWhenRepsAreTopics(t *testing.T) {
	g, space, tid := hubGraph(t)
	walks := buildWalks(t, g, 3, 4)
	vt := space.Nodes(tid)
	sum := MigrateInfluence(tid, walks, vt, vt)
	if tw := sum.TotalWeight(); math.Abs(tw-1) > 1e-9 {
		t.Errorf("TotalWeight = %v, want 1 when reps ⊇ topics", tw)
	}
}

func TestSummarizeEndToEnd(t *testing.T) {
	g, space, tid := hubGraph(t)
	s, err := New(g, space, buildWalks(t, g, 4, 16), Options{RepCount: 4})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := s.Summarize(context.Background(), tid)
	if err != nil {
		t.Fatal(err)
	}
	if err := sum.Validate(); err != nil {
		t.Fatal(err)
	}
	if sum.Len() != 4 {
		t.Errorf("summary size = %d, want 4", sum.Len())
	}
	if sum.Topic != tid {
		t.Errorf("summary topic = %d, want %d", sum.Topic, tid)
	}
}

func BenchmarkRepNodes(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	n := 2000
	gb := graph.NewBuilder(n)
	for i := 0; i < n*8; i++ {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		_ = gb.AddEdge(u, v, 0.1+0.8*rng.Float64())
	}
	g := gb.Build()
	walks, err := randwalk.Build(context.Background(), g, randwalk.Options{L: 5, R: 8, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	vt := make([]graph.NodeID, 100)
	for i := range vt {
		vt[i] = graph.NodeID(rng.Intn(n))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lone(g, walks, vt, Options{RepCount: 50})
	}
}
