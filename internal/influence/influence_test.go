package influence

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/lrw"
	"repro/internal/randwalk"
	"repro/internal/summary"
	"repro/internal/topics"
)

func TestPathSumLine(t *testing.T) {
	b := graph.NewBuilder(3)
	b.MustAddEdge(0, 1, 0.5)
	b.MustAddEdge(1, 2, 0.4)
	g := b.Build()
	if got := PathSum(g, 0, 2, Options{}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("PathSum = %v, want 0.2", got)
	}
	if got := PathSum(g, 2, 0, Options{}); got != 0 {
		t.Errorf("reverse PathSum = %v, want 0", got)
	}
	if got := PathSum(g, 1, 1, Options{}); got != 0 {
		t.Errorf("self PathSum = %v, want 0", got)
	}
}

func TestPathSumDiamondAndCycle(t *testing.T) {
	// Diamond plus a back edge forming a cycle; simple paths only.
	b := graph.NewBuilder(4)
	b.MustAddEdge(0, 1, 0.5)
	b.MustAddEdge(1, 3, 0.6)
	b.MustAddEdge(0, 2, 0.4)
	b.MustAddEdge(2, 3, 0.5)
	b.MustAddEdge(3, 0, 0.9) // cycle back; must not loop
	g := b.Build()
	want := 0.5*0.6 + 0.4*0.5
	if got := PathSum(g, 0, 3, Options{}); math.Abs(got-want) > 1e-12 {
		t.Errorf("PathSum = %v, want %v", got, want)
	}
}

func TestPathSumBounds(t *testing.T) {
	b := graph.NewBuilder(4)
	b.MustAddEdge(0, 1, 0.5)
	b.MustAddEdge(1, 2, 0.5)
	b.MustAddEdge(2, 3, 0.5)
	b.MustAddEdge(0, 3, 0.05)
	g := b.Build()
	// MaxHops 2 drops the 3-hop path.
	if got := PathSum(g, 0, 3, Options{MaxHops: 2}); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("bounded PathSum = %v, want 0.05", got)
	}
	// MinProb 0.1 drops the direct low-probability edge.
	if got := PathSum(g, 0, 3, Options{MinProb: 0.1}); math.Abs(got-0.125) > 1e-12 {
		t.Errorf("floored PathSum = %v, want 0.125", got)
	}
}

func TestExactFigure1(t *testing.T) {
	g, space, err := dataset.Figure1Scenario()
	if err != nil {
		t.Fatal(err)
	}
	apple, _ := space.ByLabel("apple phone")
	// Simple-path influence of t1 on user 3; the paper's worked value is
	// 0.137 (their table omits two sub-milli contributions).
	got, err := Exact(g, space, apple.ID, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.137) > 0.01 {
		t.Errorf("Exact(apple, user3) = %v, want ≈ 0.137", got)
	}
}

func TestExactValidation(t *testing.T) {
	g, space, _ := testWorld(t)
	if _, err := Exact(nil, space, 0, 0, Options{}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := Exact(g, nil, 0, 0, Options{}); err == nil {
		t.Error("nil space accepted")
	}
	if _, err := Exact(g, space, 999, 0, Options{}); err == nil {
		t.Error("unknown topic accepted")
	}
	if _, err := Exact(g, space, 0, -1, Options{}); err == nil {
		t.Error("bad user accepted")
	}
}

func testWorld(t testing.TB) (*graph.Graph, *topics.Space, topics.TopicID) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	b := graph.NewBuilder(30)
	for i := 0; i < 90; i++ {
		u, v := graph.NodeID(rng.Intn(30)), graph.NodeID(rng.Intn(30))
		if u == v {
			continue
		}
		b.MustAddEdge(u, v, 0.1+0.4*rng.Float64())
	}
	g := b.Build()
	sb := topics.NewSpaceBuilder()
	tid, _ := sb.AddTopic("t", "a topic")
	for v := 0; v < 10; v++ {
		_ = sb.AddNode(tid, graph.NodeID(v))
	}
	return g, sb.Build(), tid
}

// Property: a probability floor or hop bound never increases the path sum
// (both only drop paths).
func TestBoundsAreMonotone(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(6)
		b := graph.NewBuilder(n)
		for i := 0; i < n*2; i++ {
			u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
			if u == v {
				continue
			}
			_ = b.AddEdge(u, v, 0.2+0.6*rng.Float64())
		}
		g := b.Build()
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		full := PathSum(g, u, v, Options{})
		if PathSum(g, u, v, Options{MaxHops: 3}) > full+1e-12 {
			return false
		}
		if PathSum(g, u, v, Options{MinProb: 0.1}) > full+1e-12 {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSummarizationErrorDecreasesWithMoreReps ties Definition 1 together:
// migrating influence onto MORE representatives should (on average over
// users) track the exact influence at least as well.
func TestSummarizationErrorDecreasesWithMoreReps(t *testing.T) {
	g, space, tid := testWorld(t)
	walks, err := randwalk.Build(context.Background(), g, randwalk.Options{L: 4, R: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	errorFor := func(repCount int) float64 {
		s, err := lrw.New(g, space, walks, lrw.Options{RepCount: repCount, Lambda: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		sum, err := s.Summarize(context.Background(), tid)
		if err != nil {
			t.Fatal(err)
		}
		total := 0.0
		for v := 0; v < g.NumNodes(); v++ {
			e, err := SummarizationError(g, space, sum, graph.NodeID(v), Options{MaxHops: 5})
			if err != nil {
				t.Fatal(err)
			}
			total += e
		}
		return total
	}
	few, many := errorFor(2), errorFor(10)
	if many > few*1.5 {
		t.Errorf("error with 10 reps (%v) much worse than with 2 (%v)", many, few)
	}
}

// Property: ExactSummarized with the identity summary (all topic nodes,
// uniform weights) equals Exact.
func TestIdentitySummaryIsExact(t *testing.T) {
	g, space, tid := testWorld(t)
	vt := space.Nodes(tid)
	reps := make([]summary.WeightedNode, len(vt))
	for i, v := range vt {
		reps[i] = summary.WeightedNode{Node: v, Weight: 1.0 / float64(len(vt))}
	}
	sum := summary.New(tid, reps)
	for v := 10; v < 20; v++ {
		exact, err := Exact(g, space, tid, graph.NodeID(v), Options{MaxHops: 5})
		if err != nil {
			t.Fatal(err)
		}
		approx, err := ExactSummarized(g, sum, graph.NodeID(v), Options{MaxHops: 5})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(exact-approx) > 1e-9 {
			t.Fatalf("user %d: identity summary %v != exact %v", v, approx, exact)
		}
	}
}
